package epc

import (
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/rng"
)

// forceSparse swaps a freshly built EPC onto the map-backed page table,
// regardless of ELRANGE size. Only valid before any page is loaded.
func forceSparse(t *testing.T, e *EPC) {
	t.Helper()
	if e.Resident() != 0 {
		t.Fatal("forceSparse on a non-empty EPC")
	}
	e.pt = make(sparsePageTable, len(e.frames))
}

func TestNewSelectsPageTableImplementation(t *testing.T) {
	small := mustNew(t, 4, 1024)
	if _, ok := small.pt.(*densePageTable); !ok {
		t.Fatalf("small ELRANGE uses %T, want *densePageTable", small.pt)
	}
	big, err := New(4, maxDensePages+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := big.pt.(sparsePageTable); !ok {
		t.Fatalf("oversized ELRANGE uses %T, want sparsePageTable", big.pt)
	}
}

// bruteScan is the oracle for the per-owner preload lists: a walk of the
// whole frame table collecting the resident preloaded pages in [lo, hi)
// with their access bits.
func bruteScan(e *EPC, lo, hi mem.PageID) map[mem.PageID]bool {
	want := make(map[mem.PageID]bool)
	for i := range e.frames {
		fr := &e.frames[i]
		if fr.page != mem.NoPage && fr.preSlot != 0 && fr.page >= lo && fr.page < hi {
			want[fr.page] = fr.accessed
		}
	}
	return want
}

// bruteOwnerStats is the oracle for OwnerScanStats' counters: a walk of
// the whole frame table counting owner's resident and accessed frames.
func bruteOwnerStats(e *EPC, owner int) (accessed, resident int) {
	for i := range e.frames {
		fr := &e.frames[i]
		if fr.page == mem.NoPage || int(fr.owner) != owner {
			continue
		}
		resident++
		if fr.accessed {
			accessed++
		}
	}
	return accessed, resident
}

// checkScan runs ScanPreloadBitsRange(lo, hi, clear) on e and checks it
// against bruteScan: each preloaded page in range visited exactly once
// with its access bit, and afterwards exactly the visited accessed pages
// (when clear) have lost their preload bit.
func checkScan(t *testing.T, step int, e *EPC, lo, hi mem.PageID, clear bool) {
	t.Helper()
	want := bruteScan(e, lo, hi)
	before := bruteScan(e, 0, mem.PageID(e.Pages()))
	got := make(map[mem.PageID]bool, len(want))
	e.ScanPreloadBitsRange(lo, hi, clear, func(p mem.PageID, acc bool) {
		if _, dup := got[p]; dup {
			t.Fatalf("step %d: scan [%d,%d) visited page %d twice", step, lo, hi, p)
		}
		got[p] = acc
	})
	if len(got) != len(want) {
		t.Fatalf("step %d: scan [%d,%d) visited %v, frame walk says %v", step, lo, hi, got, want)
	}
	for p, acc := range want {
		if g, ok := got[p]; !ok || g != acc {
			t.Fatalf("step %d: scan [%d,%d) visited %v, frame walk says %v", step, lo, hi, got, want)
		}
	}
	for p, acc := range before {
		_, inRange := want[p]
		if wantBit := !(clear && inRange && acc); e.Preloaded(p) != wantBit {
			t.Fatalf("step %d: scan [%d,%d) clear=%v left page %d preloaded=%v, want %v",
				step, lo, hi, clear, p, e.Preloaded(p), wantBit)
		}
	}
}

// TestPageTableDifferential drives a dense-table EPC and a map-fallback
// EPC through an identical random load/touch/evict/victim/scan sequence
// under every eviction policy and asserts they stay indistinguishable:
// same victims, same presence answers, same bitmap, same invariants. This
// is the parity oracle for the reverse-array optimization — any
// divergence in the page table would surface as a differing victim or
// bitmap. The service-scan reads (ScanPreloadBitsRange over whole-owner,
// partial and multi-owner ranges, and OwnerScanStats) are checked against
// brute-force frame walks, across a mid-sequence Grow and AddOwner like
// a dynamic admission.
func TestPageTableDifferential(t *testing.T) {
	const (
		capacity = 8
		pages    = 128
		steps    = 8000
		owners   = 4 // pages split into 4 equal owner ranges
	)
	for _, policy := range []Policy{PolicyClock, PolicyFIFO, PolicyLRU, PolicyRandom} {
		t.Run(policy.String(), func(t *testing.T) {
			// Both EPCs start with half the page space and half the
			// owners; the rest is admitted mid-sequence.
			mk := func() *EPC {
				e, err := NewWithPolicy(capacity, pages/2, policy)
				if err != nil {
					t.Fatal(err)
				}
				for o := 1; o <= owners/2; o++ {
					if err := e.AddOwner(uint64(o) * pages / owners); err != nil {
						t.Fatal(err)
					}
				}
				return e
			}
			dense, sparse := mk(), mk()
			if _, ok := dense.pt.(*densePageTable); !ok {
				t.Fatalf("control EPC uses %T, want *densePageTable", dense.pt)
			}
			forceSparse(t, sparse)
			// ownerLo returns owner o's lower page bound.
			ownerLo := func(o int) mem.PageID { return mem.PageID(o * pages / owners) }

			r := rng.New(1337)
			for i := 0; i < steps; i++ {
				switch i {
				case steps / 4: // admission: grow the page space, register one owner
					for _, e := range []*EPC{dense, sparse} {
						if err := e.Grow(pages); err != nil {
							t.Fatal(err)
						}
						if err := e.AddOwner(3 * pages / owners); err != nil {
							t.Fatal(err)
						}
					}
				case steps / 2: // the last owner's range fills the grown space
					for _, e := range []*EPC{dense, sparse} {
						if err := e.AddOwner(pages); err != nil {
							t.Fatal(err)
						}
					}
				}
				registered := dense.Owners()
				p := mem.PageID(r.Intn(int(ownerLo(registered))))
				switch r.Intn(8) {
				case 0: // load (evicting if full), preload flag varies
					if dense.Present(p) != sparse.Present(p) {
						t.Fatalf("step %d: Present(%d) diverges", i, p)
					}
					if dense.Present(p) {
						continue
					}
					if dense.Full() {
						dv, sv := dense.SelectVictim(), sparse.SelectVictim()
						if dv != sv {
							t.Fatalf("step %d: victims diverge: dense %d, sparse %d", i, dv, sv)
						}
						dense.Evict(dv)
						sparse.Evict(sv)
					}
					pre := r.Intn(2) == 0
					if err := dense.Load(p, pre); err != nil {
						t.Fatalf("step %d: dense Load(%d): %v", i, p, err)
					}
					if err := sparse.Load(p, pre); err != nil {
						t.Fatalf("step %d: sparse Load(%d): %v", i, p, err)
					}
				case 1:
					if dense.Evict(p) != sparse.Evict(p) {
						t.Fatalf("step %d: Evict(%d) diverges", i, p)
					}
				case 2:
					if dense.Touch(p) != sparse.Touch(p) {
						t.Fatalf("step %d: Touch(%d) diverges", i, p)
					}
				case 3:
					if dv, sv := dense.SelectVictim(), sparse.SelectVictim(); dv != sv {
						t.Fatalf("step %d: SelectVictim diverges: dense %d, sparse %d", i, dv, sv)
					}
				case 4:
					if dense.Preloaded(p) != sparse.Preloaded(p) || dense.Accessed(p) != sparse.Accessed(p) {
						t.Fatalf("step %d: frame bits diverge for page %d", i, p)
					}
				case 5: // owner-filtered victim scan
					o := r.Intn(registered)
					if dv, sv := dense.SelectVictimOwned(o), sparse.SelectVictimOwned(o); dv != sv {
						t.Fatalf("step %d: SelectVictimOwned(%d) diverges: dense %d, sparse %d", i, o, dv, sv)
					}
				case 6: // service scan over a whole-owner, multi-owner or partial range
					var lo, hi mem.PageID
					switch r.Intn(3) {
					case 0:
						o := r.Intn(registered)
						lo, hi = ownerLo(o), ownerLo(o+1)
					case 1:
						a, b := r.Intn(registered), r.Intn(registered)
						lo, hi = ownerLo(min(a, b)), ownerLo(max(a, b)+1)
					default: // may reach past the last registered owner
						a, b := mem.PageID(r.Intn(int(dense.Pages())+1)), mem.PageID(r.Intn(int(dense.Pages())+1))
						lo, hi = min(a, b), max(a, b)
					}
					clear := r.Intn(2) == 0
					checkScan(t, i, dense, lo, hi, clear)
					checkScan(t, i, sparse, lo, hi, clear)
				case 7: // adaptive-quota sample
					for _, e := range []*EPC{dense, sparse} {
						for o := 0; o < registered; o++ {
							wa, wr := bruteOwnerStats(e, o)
							if a, res := e.OwnerScanStats(o); a != wa || res != wr {
								t.Fatalf("step %d: %T OwnerScanStats(%d) = (%d, %d), frame walk says (%d, %d)", i, e.pt, o, a, res, wa, wr)
							}
						}
					}
				}
				if dense.Resident() != sparse.Resident() {
					t.Fatalf("step %d: Resident diverges: %d vs %d", i, dense.Resident(), sparse.Resident())
				}
				// Ownership invariant: per-owner counts agree across the
				// two implementations and sum to the resident total.
				sum := 0
				for o := 0; o < registered; o++ {
					if dr, sr := dense.OwnerResident(o), sparse.OwnerResident(o); dr != sr {
						t.Fatalf("step %d: OwnerResident(%d) diverges: %d vs %d", i, o, dr, sr)
					}
					sum += dense.OwnerResident(o)
				}
				if sum != dense.Resident() {
					t.Fatalf("step %d: owner counts sum to %d, Resident is %d", i, sum, dense.Resident())
				}
				if err := dense.CheckInvariants(); err != nil {
					t.Fatalf("step %d: dense invariants: %v", i, err)
				}
				if err := sparse.CheckInvariants(); err != nil {
					t.Fatalf("step %d: sparse invariants: %v", i, err)
				}
			}
			// Final state must agree bit for bit.
			for p := uint64(0); p < pages; p++ {
				if dense.PresenceBitmap().Get(p) != sparse.PresenceBitmap().Get(p) {
					t.Fatalf("presence bitmap diverges at page %d", p)
				}
			}
			if err := dense.CheckInvariants(); err != nil {
				t.Fatalf("dense invariants: %v", err)
			}
			if err := sparse.CheckInvariants(); err != nil {
				t.Fatalf("sparse invariants: %v", err)
			}
		})
	}
}

// TestSparseFallbackUnderRandomOperations re-runs the structural
// invariant soak on the map-backed table so the fallback keeps its own
// coverage even though every default-sized EPC now takes the dense path.
func TestSparseFallbackUnderRandomOperations(t *testing.T) {
	const (
		capacity = 8
		pages    = 64
		steps    = 3000
	)
	e := mustNew(t, capacity, pages)
	forceSparse(t, e)
	r := rng.New(99)
	for i := 0; i < steps; i++ {
		p := mem.PageID(r.Intn(pages))
		switch r.Intn(3) {
		case 0:
			if !e.Present(p) {
				if e.Full() {
					e.Evict(e.SelectVictim())
				}
				if err := e.Load(p, r.Intn(2) == 0); err != nil {
					t.Fatalf("step %d: Load(%d): %v", i, p, err)
				}
			}
		case 1:
			e.Evict(p)
		case 2:
			e.Touch(p)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}
