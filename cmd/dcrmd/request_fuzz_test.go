package main

import (
	"bytes"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/kernels"
)

// FuzzCampaignRequest throws arbitrary bodies at decodeCampaignRequest,
// the daemon's one decoder of external input. It only decodes, so no
// campaign ever starts. Invariants: the decoder never panics, and a body it
// accepts names a known kind, a run count of at least 0, apps that resolve
// to known applications, and models only under the breakdown kind, each of
// which parses.
func FuzzCampaignRequest(f *testing.F) {
	// The bodies the daemon tests post, accepted and rejected alike.
	for _, body := range []string{
		`{"kind":"fig6","apps":["P-BICG"],"runs":8,"seed":3}`,
		`{"kind":"fig6","apps":["P-BICG"],"runs":6,"seed":5}`,
		`{"kind":"breakdown","apps":["P-BICG"],"runs":6,"seed":3,"models":["transient:flips=2"]}`,
		`{"kind":"fig42"}`,
		`{not json`,
		`{"kind":"fig6","batch":8}`,
		`{"kind":"fig6","run":5}`,
		`{"kind":"breakdown","models":["flaky"]}`,
		`{"kind":"breakdown","models":["transient:flips=two"]}`,
		`{"kind":"fig6","models":["transient"]}`,
		`{"kind":"fig7","apps":["P-BICG"]} {"kind":"bogus"}`,
		`{"kind":"fig7","apps":["P-BICG"]}garbage`,
		`{"kind":"fig6","apps":["P-BICG"],"runs":-5}`,
		`{"kind":"fig6","apps":["P-NOPE"],"runs":4}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeCampaignRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		if _, ok := jobKinds[req.Kind]; !ok {
			t.Fatalf("accepted unknown kind %q", req.Kind)
		}
		if req.Runs < 0 {
			t.Fatalf("accepted negative runs %d", req.Runs)
		}
		for _, app := range req.Apps {
			if _, err := kernels.ByName(app); err != nil {
				t.Fatalf("accepted unknown app: %v", err)
			}
		}
		if len(req.Models) > 0 {
			if req.Kind != "breakdown" {
				t.Fatalf("accepted models for kind %q", req.Kind)
			}
			if _, err := req.models(); err != nil {
				t.Fatalf("accepted models that do not parse: %v", err)
			}
		}
	})
}
