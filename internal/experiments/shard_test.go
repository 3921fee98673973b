package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/fleet"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// serialResult runs the full single-process campaign a spec describes.
func serialResult(t *testing.T, s *Suite, spec fleet.CampaignSpec) fault.Result {
	t.Helper()
	scheme, err := core.ParseScheme(spec.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	model, err := fault.ParseModel(spec.Model)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint(spec.App, scheme, spec.Level)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := shardSelector(s, cp, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cp.Campaign(s.campaign(spec.Runs, spec.Seed), model, sel)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFleetShardParity is the fabric's byte-identity contract: executing
// a campaign shard by shard (including a deliberately uneven split) and
// merging the counts must reproduce the single-process campaign result
// byte for byte — the CI shard-parity gate.
func TestFleetShardParity(t *testing.T) {
	s := testSuite(t)
	specs := []fleet.CampaignSpec{
		{App: "P-BICG", Scheme: "none", Space: "hot",
			Model: "stuck-at:bits=2,blocks=1", Runs: 40, Seed: 7},
		{App: "P-MVT", Scheme: "none", Space: "rest",
			Model: "transient:flips=2", Runs: 30, Seed: 11},
		{App: "P-BICG", Scheme: "detection", Level: 1, Space: "miss",
			Model: "stuck-at:bits=3,blocks=1", Runs: 20, Seed: 5},
	}
	for _, spec := range specs {
		want := serialResult(t, s, spec)

		// An uneven split (shard size 7 does not divide any of the run
		// counts) exercises the remainder shard.
		var merged fault.Result
		shards := fleet.SplitShards("parity", spec, 7)
		for _, sh := range shards {
			counts, key, err := RunShard(context.Background(), s, sh)
			if err != nil {
				t.Fatalf("%s shard %d: %v", spec, sh.Index, err)
			}
			if key == "" {
				t.Fatalf("%s shard %d returned no store key", spec, sh.Index)
			}
			merged.Add(counts.Result())
		}

		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(merged)
		if string(wantJSON) != string(gotJSON) {
			t.Errorf("%s: merged shards %s != serial campaign %s (split %d ways)",
				spec, gotJSON, wantJSON, len(shards))
		}
	}
}

// TestRunShardServedFromStore proves the fetch-instead-of-recompute path:
// repeating a shard on the same suite must not re-execute any campaign
// runs (the result is already under its content-addressed key).
func TestRunShardServedFromStore(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := NewSuite(SuiteConfig{NNTrainSamples: 60, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	spec := fleet.CampaignSpec{App: "P-GESUMMV", Scheme: "none", Space: "hot",
		Model: "stuck-at:bits=2,blocks=1", Runs: 16, Seed: 23}
	sh := fleet.SplitShards("store-proof", spec, 16)[0]

	first, key1, err := RunShard(context.Background(), s, sh)
	if err != nil {
		t.Fatal(err)
	}
	computes := sampleValue(t, reg, "dcrm_store_computes_total")
	again, key2, err := RunShard(context.Background(), s, sh)
	if err != nil {
		t.Fatal(err)
	}
	if key1 != key2 {
		t.Fatalf("same shard produced different store keys: %s vs %s", key1, key2)
	}
	if first != again {
		t.Fatalf("store-served shard counts differ: %+v vs %+v", first, again)
	}
	if after := sampleValue(t, reg, "dcrm_store_computes_total"); after != computes {
		t.Fatalf("repeat shard recomputed: computes %v -> %v", computes, after)
	}
}

// sampleValue reads one unlabeled sample from the registry.
func sampleValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	sample, ok := reg.Snapshot().Get(name)
	if !ok {
		t.Fatalf("no sample %q", name)
	}
	return sample.Value
}

// TestValidateSpec rejects malformed specs with actionable errors.
func TestValidateSpec(t *testing.T) {
	good := fleet.CampaignSpec{App: "P-BICG", Scheme: "detection", Level: 1,
		Space: "miss", Model: "burst", Runs: 10, Seed: 1}
	if err := ValidateSpec(good); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, bad := range []fleet.CampaignSpec{
		{App: "P-BICG", Scheme: "quadruplication", Space: "hot", Model: "burst"},
		{App: "P-BICG", Scheme: "none", Space: "lukewarm", Model: "burst"},
		{App: "P-BICG", Scheme: "none", Space: "hot", Model: "no-such-model"},
		{App: "X-Unknown", Scheme: "none", Space: "hot", Model: "burst"},
	} {
		if err := ValidateSpec(bad); err == nil {
			t.Errorf("spec %+v accepted", bad)
		}
	}
}

// TestSuiteContextCancelsCampaigns: a cancelled suite context aborts
// in-flight experiment work (the daemon's graceful-shutdown contract).
func TestSuiteContextCancelsCampaigns(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := NewSuite(SuiteConfig{NNTrainSamples: 60, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	_, err = Fig6HotVsRest(s, Fig6Config{Runs: 50, Apps: []string{"P-BICG"}})
	if err == nil {
		t.Fatal("cancelled suite ran a figure to completion")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}
