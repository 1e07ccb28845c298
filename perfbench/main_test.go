package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestEveryMetricPrinted runs each workload briefly, untraced and traced,
// and checks that every catalogued metric is printed by name, and that
// every gated one is in the result, finite and with its unit, and that
// every reply checked out.
func TestEveryMetricPrinted(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			var out strings.Builder
			res, err := run(config{workload: wl.name, seed: 7, seconds: 2 * time.Second, trace: traced, spans: t.TempDir()}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					wl.name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			gated := 0
			for _, d := range want {
				if !strings.Contains(out.String(), d.name+" ") {
					t.Errorf("%s trace=%v: %s not printed", wl.name, traced, d.name)
				}
				if ungated[d.name] {
					continue
				}
				gated++
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", wl.name, traced, d.name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", wl.name, traced, d.name, m.Value)
				case m.Unit == "" || m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s has unit %q, want %q", wl.name, traced, d.name, m.Unit, d.unit)
				}
			}
			if len(res.Metrics) != gated {
				t.Errorf("%s trace=%v: %d metrics in the result, want %d", wl.name, traced, len(res.Metrics), gated)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result does not encode: %v", wl.name, traced, err)
			}
		}
	}
}

// TestPlantedWrongReplyCounted zeroes one reply before its check and
// expects it in error_rate and the failed count, and the run marked
// incorrect.
func TestPlantedWrongReplyCounted(t *testing.T) {
	for _, wl := range workloads {
		var out strings.Builder
		res, err := run(config{workload: wl.name, seed: 7, seconds: 2 * time.Second, plant: 5, spans: t.TempDir()}, &out)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !strings.Contains(out.String(), ", 1 wrong,") {
			t.Errorf("%s: error_rate line does not count the wrong reply:\n%s", wl.name, out.String())
		}
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: correct=%v failed=%d, want false and 1", wl.name, res.Correct, res.Failed)
		}
		if sr := res.Metrics["success_rate"].Value; sr >= 1 {
			t.Errorf("%s: success_rate %v, want below 1", wl.name, sr)
		}
	}
}
