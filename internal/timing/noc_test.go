package timing

import (
	"testing"
	"testing/quick"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

// TestNoCPortLatencyAndSerialization: an idle port delivers after its
// latency; a busy port starts the next packet one cycle later.
func TestNoCPortLatencyAndSerialization(t *testing.T) {
	p := nocPort{latency: 5}
	if got := p.send(10); got != 15 {
		t.Errorf("first send = %d, want 15", got)
	}
	// Port busy at cycle 10; the second packet starts at 11.
	if got := p.send(10); got != 16 {
		t.Errorf("second send = %d, want 16", got)
	}
	// A later packet after the port is free sees only the latency.
	if got := p.send(100); got != 105 {
		t.Errorf("third send = %d, want 105", got)
	}
}

// TestNoCPortFIFODelivery: under any arrival pattern deliveries stay in
// arrival order, one per cycle, and never beat the latency.
func TestNoCPortFIFODelivery(t *testing.T) {
	f := func(deltas []uint8) bool {
		p := nocPort{latency: 3}
		now, prev := int64(0), int64(-1)
		for _, d := range deltas {
			now += int64(d % 4)
			got := p.send(now)
			if got <= prev || got < now+3 {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNoCEngineLatencySplit: New splits the configured interconnect
// latency over the two ports of each direction, so an uncontended request
// (SM inject, then channel ingress) and an uncontended response (channel
// egress, then SM eject) each take InterconnectLatency cycles. Each port
// takes at least one cycle, the floor the replay's lookahead window rests
// on, so a zero-latency interconnect still takes two cycles a direction.
func TestNoCEngineLatencySplit(t *testing.T) {
	for _, tt := range []struct{ latency, want int }{{8, 8}, {5, 5}, {0, 2}} {
		cfg := arch.Default()
		cfg.InterconnectLatency = tt.latency
		e, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(tt.want)
		sm, ch := e.sms[0], e.chans[0]
		if got := ch.ingress.send(sm.inject.send(0)); got != want {
			t.Errorf("latency %d: uncontended request takes %d, want %d", tt.latency, got, want)
		}
		if got := sm.eject.send(ch.egress.send(100)); got != 100+want {
			t.Errorf("latency %d: uncontended response takes %d, want %d", tt.latency, got-100, want)
		}
	}
}

// TestNewRejectsConfigWithoutPorts: the crossbar needs at least one SM and
// one channel to route between.
func TestNewRejectsConfigWithoutPorts(t *testing.T) {
	noSMs, noChannels := arch.Default(), arch.Default()
	noSMs.NumSMs = 0
	noChannels.NumMemChannels = 0
	for _, cfg := range []arch.Config{noSMs, noChannels} {
		if _, err := New(cfg, nil); err == nil {
			t.Errorf("New accepted %d SMs and %d channels", cfg.NumSMs, cfg.NumMemChannels)
		}
	}
}

// TestNoCChannelContention: requests from every SM to one channel in the
// same cycle are serialized at the channel's ingress port, while requests
// to distinct channels all see the uncontended latency.
func TestNoCChannelContention(t *testing.T) {
	cfg := arch.Default()
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, sm := range e.sms {
		at := e.chans[0].ingress.send(sm.inject.send(0))
		if seen[at] {
			t.Fatalf("two packets delivered at cycle %d through one channel port", at)
		}
		seen[at] = true
	}

	e, err = New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range e.chans {
		if at := ch.ingress.send(e.sms[i].inject.send(0)); at != int64(cfg.InterconnectLatency) {
			t.Errorf("SM %d → ch %d latency = %d, want %d", i, i, at, cfg.InterconnectLatency)
		}
	}
}
