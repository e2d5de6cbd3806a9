package fleet

import (
	"fmt"
	"strings"
	"testing"

	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/sim"
)

// mixedEnclaves builds n enclaves whose traces differ by stride, so the
// round-robin groups of a multi-host fleet are not interchangeable.
func mixedEnclaves(n int) []sim.Enclave {
	out := enclaves(n)
	for i := range out {
		stride := 7 + 2*(i%4)
		trace := make([]mem.Access, 96)
		for j := range trace {
			trace[j] = mem.Access{Page: mem.PageID((j * stride) % 64), Compute: 1000 + uint64(i%3)}
		}
		out[i].Trace = trace
	}
	return out
}

// TestRoundRobinFleetEqualsSharedGroups is the differential test for
// many independent EPC domains: a fleet with every arrival at t=0,
// round-robin placement and no admission control is RunShared over each
// host's i mod N group — per-enclave results and per-host event
// timelines byte for byte, with and without an EPC quota policy.
func TestRoundRobinFleetEqualsSharedGroups(t *testing.T) {
	const n, epcPages = 17, 96
	for _, quota := range []arbiter.Policy{arbiter.Global, arbiter.Adaptive} {
		for _, hosts := range []int{1, 2, 3, 4, 8} {
			recs := make([]*obs.Recorder, hosts)
			res, err := Run(atTimeZero(mixedEnclaves(n)), Config{
				Hosts:  hosts,
				Policy: RoundRobin,
				Platform: sim.SharedConfig{EPCPages: epcPages, Quota: quota,
					HookFactory: func(h int) obs.Hook {
						recs[h] = obs.NewRecorder()
						return recs[h]
					}},
				Workers: hosts,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, h := range res.Placement {
				if h != i%hosts {
					t.Fatalf("quota %v hosts=%d: launch %d placed on host %d, want %d", quota, hosts, i, h, i%hosts)
				}
			}
			all := mixedEnclaves(n)
			for h := 0; h < hosts; h++ {
				var group []sim.Enclave
				for i := h; i < n; i += hosts {
					group = append(group, all[i])
				}
				rec := obs.NewRecorder()
				want, err := sim.RunShared(group, sim.SharedConfig{EPCPages: epcPages, Quota: quota, Hook: rec})
				if err != nil {
					t.Fatal(err)
				}
				if a, b := fmt.Sprintf("%#v", want), fmt.Sprintf("%#v", res.Hosts[h].Enclaves); a != b {
					t.Errorf("quota %v hosts=%d host %d: results diverge from RunShared:\n  shared %.300s\n  fleet  %.300s",
						quota, hosts, h, a, b)
				}
				if a, b := jsonl(t, rec), jsonl(t, recs[h]); a != b {
					t.Errorf("quota %v hosts=%d host %d: timeline diverges from RunShared: %s",
						quota, hosts, h, firstDiffLine(a, b))
				}
			}
		}
	}
}

// slowFailStream yields delay accesses, then one access outside the
// enclave's range — a host that fails only after simulating a while.
func slowFailStream(delay int, pages uint64) mem.Stream {
	i := 0
	return mem.StreamFunc(func() (mem.Access, bool) {
		i++
		if i <= delay {
			return mem.Access{Page: mem.PageID(uint64(i) % pages), Compute: 1000}, true
		}
		if i == delay+1 {
			return mem.Access{Page: mem.PageID(pages) + 1, Compute: 1000}, true
		}
		return mem.Access{}, false
	})
}

// TestFleetOutOfOrderFailure forces a higher-index host to fail long
// before a lower-index host reports its own error: host 0 fails after
// 50k accesses, host 3 on its first. The lowest-index error must win at
// every worker count — the error a sequential host loop would have hit
// first — even though host 3's failure stops the pool while host 0 is
// still running.
func TestFleetOutOfOrderFailure(t *testing.T) {
	bad := func(delay int) sim.Enclave {
		return sim.Enclave{
			Name:   fmt.Sprintf("bad-after-%d", delay),
			Stream: slowFailStream(delay, 8),
			Pages:  8,
			Scheme: sim.Baseline,
		}
	}
	for _, workers := range []int{1, 2, 4, 8, 0} {
		good := enclaves(2)
		arr := atTimeZero([]sim.Enclave{bad(50000), good[0], good[1], bad(0)})
		_, err := Run(arr, Config{Hosts: 4, Policy: RoundRobin,
			Platform: sim.SharedConfig{EPCPages: 64}, Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: want error", workers)
		}
		if !strings.Contains(err.Error(), "host 0:") {
			t.Errorf("workers=%d: want host 0's error (the sequential loop's first), got %v", workers, err)
		}
	}
}

// jsonl renders a recorder's timeline.
func jsonl(t *testing.T, rec *obs.Recorder) string {
	t.Helper()
	var b strings.Builder
	if err := rec.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// firstDiffLine locates the first differing line of two timelines.
func firstDiffLine(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("first divergence at line %d:\n  a: %s\n  b: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("one trace is a prefix of the other (%d vs %d lines)", len(la), len(lb))
}
