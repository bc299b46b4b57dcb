package gen

import (
	"testing"

	"superglue/internal/swifi"
)

// TestCampaignThroughGeneratedStubs runs fault-injection campaigns over
// the lock and event services' own SWIFI workloads, whose clients call
// the sgc-generated methods: the deployed artifact recovers under fire.
func TestCampaignThroughGeneratedStubs(t *testing.T) {
	for _, name := range []string{"lock", "event"} {
		t.Run(name, func(t *testing.T) {
			res, err := swifi.Run(swifi.Config{
				Service:  name,
				Workload: swifi.Workloads()[name],
				Iters:    4,
				Trials:   120,
				Seed:     5150,
				Profile:  swifi.Profiles()[name],
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, tr := range res.Trials {
				if tr.Outcome == swifi.OutcomeOther && tr.Injection.Effect == swifi.EffectCrash {
					t.Errorf("generated client failed to recover a detected crash: %s (inj %+v)",
						tr.Detail, tr.Injection)
				}
			}
			if res.SuccessRate() < 0.7 {
				t.Errorf("success rate %.2f below sanity floor", res.SuccessRate())
			}
		})
	}
}
