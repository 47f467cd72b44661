package experiments

import (
	"testing"

	"ursa/internal/faults"
	"ursa/internal/sim"
)

// TestRunRejectsBadInput: every scenario input a user can reach through the
// CLI comes back from Run as an error — never a panic — and before any
// manager preparation or simulation starts.
func TestRunRejectsBadInput(t *testing.T) {
	social, _ := AppCaseByName("social-network")
	media, _ := AppCaseByName("media-service")
	base := func(c AppCase) Scenario {
		return Scenario{App: c, System: "none", Duration: sim.Minute, Seed: 1}
	}
	cases := []struct {
		name string
		s    func() Scenario
	}{
		{"unknown system", func() Scenario {
			s := base(social)
			s.System = "no-such-system"
			return s
		}},
		{"unknown node", func() Scenario {
			s := base(social)
			s.Placement = Testbed
			s.Faults.NodeFails = []faults.NodeFail{{Node: "node-99", At: Warmup}}
			return s
		}},
		{"unknown region", func() Scenario {
			s := base(social)
			s.Placement, s.Regions = Regions, SocialNetworkRegions()
			s.RegionFail = RegionFail{Region: "mars", At: Warmup}
			return s
		}},
		{"regions with node failure", func() Scenario {
			s := base(social)
			s.Placement, s.Regions = Regions, SocialNetworkRegions()
			s.Faults.NodeFails = []faults.NodeFail{{Node: "node-7", At: Warmup}}
			return s
		}},
		{"regions on an app without regions", func() Scenario {
			s := base(media)
			s.Placement = Regions
			return s
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			opts := quick()
			if _, app, err := opts.Run(tc.s()); err == nil || app != nil {
				t.Fatalf("Run = (app %v, err %v), want an error and no app", app, err)
			}
		})
	}
}
