package experiments

import (
	"context"
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/fleet"
	"github.com/datacentric-gpu/dcrm/internal/kernels"
	"github.com/datacentric-gpu/dcrm/internal/store"
)

// ValidateSpec vets a fleet campaign spec without running anything: the
// scheme, space, and fault model must parse and the application must be
// known. The daemon wires this into the coordinator so a typo'd
// submission fails at POST time with a clear message instead of failing
// shards on workers.
func ValidateSpec(spec fleet.CampaignSpec) error {
	if _, err := core.ParseScheme(spec.Scheme); err != nil {
		return err
	}
	switch spec.Space {
	case "hot", "rest", "miss":
	default:
		return fmt.Errorf("experiments: unknown injection space %q (want hot, rest, or miss)", spec.Space)
	}
	if _, err := fault.ParseModel(spec.Model); err != nil {
		return err
	}
	if _, err := kernels.ByName(spec.App); err != nil {
		return err
	}
	return nil
}

// shardSelector resolves the spec's injection space against the suite:
// the Fig. 6 hot/rest block sets or the Fig. 9 miss-weighted whole-space
// selector (one timing run, memoized on the checkpoint).
func shardSelector(s *Suite, cp *Checkpoint, spec fleet.CampaignSpec) (fault.Selector, error) {
	if spec.Space == "miss" {
		return cp.MissSelector()
	}
	blocks, err := s.spaceBlocks(spec.App, spec.Space)
	if err != nil {
		return nil, err
	}
	return fault.NewSetSelector(blocks)
}

// RunShard executes one fleet shard — the run-index range [shard.Start,
// shard.End) of the campaign shard.Spec describes — against the suite's
// memoized checkpoint and its fork free-lists, and returns the shard's outcome
// counts plus the content-addressed store key they were published under.
// The checkpoint's artifacts are built on first use, or fetched from the
// store, as the campaign needs them; the worker's heartbeat loop runs on
// its own goroutine, so the lease stays alive meanwhile.
//
// Results are served through the suite's store: a shard key folds the
// full suite identity, the campaign spec, and the run range, so a
// restarted worker (or any peer sharing a disk-backed store) fetches the
// counts instead of recomputing them, and two different campaigns can
// never alias. Because run i's random stream is derived from (Seed, i)
// exactly as the single-process path derives it, merging every shard of a
// split reproduces the serial campaign result byte for byte.
func RunShard(ctx context.Context, s *Suite, shard fleet.Shard) (fleet.Counts, string, error) {
	spec := shard.Spec
	scheme, err := core.ParseScheme(spec.Scheme)
	if err != nil {
		return fleet.Counts{}, "", err
	}
	model, err := fault.ParseModel(spec.Model)
	if err != nil {
		return fleet.Counts{}, "", err
	}
	key := s.key("shard").
		Field("app", spec.App).
		Field("scheme", spec.Scheme).
		Field("level", spec.Level).
		Field("space", spec.Space).
		Field("model", fault.ModelKey(model)).
		Field("runs", spec.Runs).
		Field("campaignSeed", spec.Seed).
		Field("range", fmt.Sprintf("%d-%d", shard.Start, shard.End)).
		Key()
	counts, err := store.Do(s.st, key, store.Options[fleet.Counts]{Persist: true},
		func() (fleet.Counts, error) {
			cp, err := s.Checkpoint(spec.App, scheme, spec.Level)
			if err != nil {
				return fleet.Counts{}, err
			}
			sel, err := shardSelector(s, cp, spec)
			if err != nil {
				return fleet.Counts{}, err
			}
			c := s.campaign(spec.Runs, spec.Seed)
			c.Context = ctx
			res, err := cp.CampaignRange(c, shard.Start, shard.End, model, sel)
			if err != nil {
				return fleet.Counts{}, fmt.Errorf("experiments: shard %s [%d, %d): %w",
					spec, shard.Start, shard.End, err)
			}
			return fleet.CountsFromResult(res), nil
		})
	if err != nil {
		return fleet.Counts{}, "", err
	}
	return counts, key.Hash(), nil
}

// ShardRunner adapts the suite to the fleet worker's runner interface.
func ShardRunner(s *Suite) fleet.ShardRunner {
	return func(ctx context.Context, shard fleet.Shard) (fleet.Counts, string, error) {
		return RunShard(ctx, s, shard)
	}
}
