// Package epc models the SGX Enclave Page Cache: the scarce, fixed-size
// region of protected physical memory that enclave pages must occupy to be
// accessible.
//
// The model tracks, for every resident enclave page, the physical frame it
// occupies and two per-frame bits: the access bit (set by the hardware on
// every touch, cleared by the OS service thread — the input to CLOCK
// eviction and to DFP's accuracy counters) and the preload bit (set when
// the page was brought in by a preloader rather than by a demand fault).
//
// It also maintains the presence bitmap shared between the enclave and the
// untrusted OS that SIP's BIT_MAP_CHECK consults: one bit per enclave
// virtual page, updated only when a page is loaded or evicted. The paper
// notes this bitmap leaks nothing beyond what the OS already knows, since
// the OS manages EPC residency in the first place.
package epc

import (
	"fmt"

	"sgxpreload/internal/mem"
)

// FrameID indexes a physical EPC frame.
type FrameID uint32

// noFrame marks an unmapped page in the reverse map.
const noFrame = FrameID(1<<32 - 1)

// Policy selects the eviction victim-selection algorithm. The Intel SGX
// driver the paper builds on uses CLOCK second chance; the alternatives
// exist for the eviction-policy ablation.
type Policy int

// Eviction policies.
const (
	// PolicyClock is the driver's CLOCK second-chance algorithm
	// (default).
	PolicyClock Policy = iota
	// PolicyFIFO evicts the longest-resident page.
	PolicyFIFO
	// PolicyLRU evicts the least recently touched page (exact LRU — an
	// oracle the real driver cannot afford, since it would need a
	// timestamp update on every enclave access).
	PolicyLRU
	// PolicyRandom evicts a uniformly random resident page.
	PolicyRandom
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyClock:
		return "clock"
	case PolicyFIFO:
		return "fifo"
	case PolicyLRU:
		return "lru"
	case PolicyRandom:
		return "random"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// frame is the per-physical-frame metadata the driver keeps. It is held
// at 32 bytes (TestFrameSize): a shared EPC has tens of thousands of them.
type frame struct {
	page mem.PageID // resident virtual page, mem.NoPage if free
	// stamp is the sequence number the policy orders victims by: the
	// load sequence under FIFO, the last-touch sequence under LRU
	// (a load counts as a touch). The policy is fixed per EPC, so one
	// field serves both.
	stamp uint64
	owner int32 // owning enclave, stamped at Load, reset at Evict
	// preSlot is the preload bit (the page arrived via preloading, not
	// a demand fault): 0 when clear, else 1 + the frame's index in its
	// owner's preByOwner list.
	preSlot  int32
	accessed bool // hardware access bit
}

// EPC is the enclave page cache state for a single enclave.
//
// EPC is not safe for concurrent use; the simulator is a discrete-event
// model driven from one goroutine, matching the paper's single-threaded
// benchmarks.
type EPC struct {
	frames []frame
	free   []FrameID // LIFO free list
	// pt is the page→frame reverse mapping: a flat array indexed by
	// PageID for ELRANGEs up to maxDensePages (the common case — every
	// Present/Touch/Load/Evict is then array indexing), a map beyond.
	pt      pageTable
	present *Bitmap // shared presence bitmap (SIP's BIT_MAP_CHECK)
	hand    int     // CLOCK hand over frames
	pages   uint64  // ELRANGE size in pages (bitmap capacity)
	policy  Policy
	seq     uint64 // load/touch sequence counter for FIFO/LRU
	rnd     uint64 // xorshift state for PolicyRandom
	// Ownership: the shared page space is a sequence of disjoint
	// per-enclave ranges registered in ascending order via AddOwner.
	// ownerHi[i] is the exclusive upper bound of owner i's range (its
	// lower bound is ownerHi[i-1], or 0 for owner 0). With no owners
	// registered every page belongs to the implicit owner 0 — the solo
	// degenerate case, where ownership is pure bookkeeping.
	ownerHi    []mem.PageID
	resByOwner []int // resident frame count per owner
	accByOwner []int // resident frames with the access bit set, per owner
	// preByOwner lists, per owner, the frames whose preload bit is set
	// (unordered; frame.preSlot locates each entry for swap-removal), so
	// a service scan costs the owner's own preloads, not the whole EPC.
	preByOwner [][]FrameID
}

// New returns an EPC with capacity physical frames serving an enclave
// whose ELRANGE spans elrangePages virtual pages, using the driver's
// CLOCK eviction.
func New(capacity int, elrangePages uint64) (*EPC, error) {
	return NewWithPolicy(capacity, elrangePages, PolicyClock)
}

// NewWithPolicy is New with an explicit eviction policy.
func NewWithPolicy(capacity int, elrangePages uint64, policy Policy) (*EPC, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("epc: capacity must be positive, got %d", capacity)
	}
	if elrangePages == 0 {
		return nil, fmt.Errorf("epc: ELRANGE must span at least one page")
	}
	if policy < PolicyClock || policy > PolicyRandom {
		return nil, fmt.Errorf("epc: unknown eviction policy %d", policy)
	}
	e := &EPC{
		frames:  make([]frame, capacity),
		free:    make([]FrameID, 0, capacity),
		pt:      newPageTable(elrangePages, capacity),
		present: NewBitmap(elrangePages),
		pages:   elrangePages,
		policy:  policy,
		rnd:     0x2545f4914f6cdd1d,
		// One entry for the implicit owner 0 until AddOwner is called.
		resByOwner: make([]int, 1),
		accByOwner: make([]int, 1),
		preByOwner: make([][]FrameID, 1),
	}
	for i := range e.frames {
		e.frames[i].page = mem.NoPage
	}
	// Push frames so that frame 0 is handed out first.
	for i := capacity - 1; i >= 0; i-- {
		e.free = append(e.free, FrameID(i))
	}
	return e, nil
}

// Grow extends the ELRANGE page space to newPages without disturbing the
// physical side: frames, residency, access/preload bits, the CLOCK hand,
// and every existing page→frame mapping are untouched, so simulation
// behavior over the old pages is identical before and after. This is the
// dynamic-admission primitive — a newly launched enclave appends its
// virtual range to a host's shared page space mid-run. The page space
// only grows; asking for fewer pages than currently covered is an error.
func (e *EPC) Grow(newPages uint64) error {
	if newPages < e.pages {
		return fmt.Errorf("epc: cannot shrink ELRANGE from %d to %d pages", e.pages, newPages)
	}
	if newPages == e.pages {
		return nil
	}
	e.pt = growPageTable(e.pt, newPages, len(e.frames))
	e.present.Grow(newPages)
	e.pages = newPages
	return nil
}

// AddOwner registers the next enclave's page range, whose exclusive
// upper bound is hi (its lower bound is the previous owner's bound, or 0
// for the first owner). Ranges must be registered in ascending order
// before any page inside them is loaded, matching Engine.Admit, which
// grows the page space and registers the new range before the admitted
// enclave runs. Ownership is pure bookkeeping: it never changes which
// victim the global SelectVictim picks.
func (e *EPC) AddOwner(hi uint64) error {
	if hi > e.pages {
		return fmt.Errorf("epc: owner bound %d beyond ELRANGE of %d pages", hi, e.pages)
	}
	var lo mem.PageID
	if n := len(e.ownerHi); n > 0 {
		lo = e.ownerHi[n-1]
	}
	if mem.PageID(hi) <= lo {
		return fmt.Errorf("epc: owner bound %d not above previous bound %d", hi, lo)
	}
	e.ownerHi = append(e.ownerHi, mem.PageID(hi))
	if len(e.ownerHi) > 1 {
		e.resByOwner = append(e.resByOwner, 0)
		e.accByOwner = append(e.accByOwner, 0)
		e.preByOwner = append(e.preByOwner, nil)
	}
	return nil
}

// ownerOf maps a page to its owning enclave index: binary search over the
// ascending range bounds, or the implicit owner 0 when none are
// registered.
func (e *EPC) ownerOf(page mem.PageID) int32 {
	lo, hi := 0, len(e.ownerHi)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if page >= e.ownerHi[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// Owners returns the number of registered owner ranges (0 when the EPC is
// running in the implicit single-owner mode).
func (e *EPC) Owners() int { return len(e.ownerHi) }

// OwnerOf returns the owner index of page.
func (e *EPC) OwnerOf(page mem.PageID) int { return int(e.ownerOf(page)) }

// OwnerResident returns the number of frames currently held by owner.
func (e *EPC) OwnerResident(owner int) int {
	if owner < 0 || owner >= len(e.resByOwner) {
		return 0
	}
	return e.resByOwner[owner]
}

// OwnerScanStats returns owner's resident frame count and how many of
// them have the access bit set, without disturbing any bits. The adaptive
// quota policy samples it at scan boundaries as its working-set signal.
// Both figures are maintained counters, so the call is O(1).
func (e *EPC) OwnerScanStats(owner int) (accessed, resident int) {
	if owner < 0 || owner >= len(e.resByOwner) {
		return 0, 0
	}
	return e.accByOwner[owner], e.resByOwner[owner]
}

// Capacity returns the number of physical frames.
func (e *EPC) Capacity() int { return len(e.frames) }

// Resident returns the number of occupied frames.
func (e *EPC) Resident() int { return e.pt.size() }

// Full reports whether every frame is occupied.
func (e *EPC) Full() bool { return e.pt.size() == len(e.frames) }

// Pages returns the ELRANGE size in pages.
func (e *EPC) Pages() uint64 { return e.pages }

// Present reports whether page is resident in the EPC.
func (e *EPC) Present(page mem.PageID) bool {
	_, ok := e.pt.lookup(page)
	return ok
}

// PresenceBitmap exposes the shared presence bitmap. SIP's runtime checks
// it from "inside the enclave"; the OS updates it on load and eviction.
func (e *EPC) PresenceBitmap() *Bitmap { return e.present }

// Touch sets the access bit of the frame holding page, mirroring the
// hardware setting the PTE accessed bit on every load/store. It reports
// whether the page was resident.
func (e *EPC) Touch(page mem.PageID) bool {
	f, ok := e.pt.lookup(page)
	if !ok {
		return false
	}
	fr := &e.frames[f]
	if !fr.accessed {
		fr.accessed = true
		e.accByOwner[fr.owner]++
	}
	if e.policy == PolicyLRU {
		e.seq++
		fr.stamp = e.seq
	}
	return true
}

// Load installs page into a free frame, marking it as preloaded when
// preloaded is true. It returns an error if the EPC is full (the caller
// must evict first — mirroring the driver, which runs EWB before ELDU when
// no free EPC page exists) or if the page is already resident.
func (e *EPC) Load(page mem.PageID, preloaded bool) error {
	if page >= mem.PageID(e.pages) {
		return fmt.Errorf("epc: page %d outside ELRANGE of %d pages", page, e.pages)
	}
	if _, ok := e.pt.lookup(page); ok {
		return fmt.Errorf("epc: page %d already resident", page)
	}
	if len(e.free) == 0 {
		return fmt.Errorf("epc: full (%d frames); evict before loading", len(e.frames))
	}
	f := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	e.seq++
	owner := e.ownerOf(page)
	e.frames[f] = frame{page: page, stamp: e.seq, owner: owner, accessed: !preloaded}
	e.resByOwner[owner]++
	if preloaded {
		e.listPreload(f)
	} else {
		e.accByOwner[owner]++
	}
	e.pt.set(page, f)
	e.present.Set(uint64(page))
	return nil
}

// Evict removes page from the EPC (the EWB path). It reports whether the
// page was resident.
func (e *EPC) Evict(page mem.PageID) bool {
	f, ok := e.pt.lookup(page)
	if !ok {
		return false
	}
	fr := &e.frames[f]
	e.resByOwner[fr.owner]--
	if fr.accessed {
		e.accByOwner[fr.owner]--
	}
	if fr.preSlot != 0 {
		e.unlistPreload(f)
	}
	*fr = frame{page: mem.NoPage}
	e.free = append(e.free, f)
	e.pt.remove(page)
	e.present.Clear(uint64(page))
	return true
}

// SelectVictim returns the page the configured policy would evict, or
// mem.NoPage if the EPC is empty.
//
// Under CLOCK (the driver's algorithm), frames with the access bit set get
// a second chance (the bit is cleared and the hand moves on); the first
// frame found with a clear access bit is the victim. With every bit set
// the hand wraps once, clearing as it goes, and evicts the frame it
// started from — guaranteeing termination.
func (e *EPC) SelectVictim() mem.PageID {
	if e.pt.size() == 0 {
		return mem.NoPage
	}
	switch e.policy {
	case PolicyFIFO, PolicyLRU:
		return e.victimByMin()
	case PolicyRandom:
		return e.victimRandom()
	}
	for sweep := 0; sweep < 2*len(e.frames); sweep++ {
		fr := &e.frames[e.hand]
		e.hand = (e.hand + 1) % len(e.frames)
		if fr.page == mem.NoPage {
			continue
		}
		if fr.accessed {
			fr.accessed = false
			e.accByOwner[fr.owner]--
			continue
		}
		return fr.page
	}
	// Unreachable: two sweeps over a non-empty table must find a frame
	// whose bit was cleared on the first pass.
	panic("epc: CLOCK failed to select a victim")
}

// SelectVictimOwned is SelectVictim restricted to frames held by owner:
// the quota arbiter uses it to make an over-quota enclave self-evict or
// to steal from a specific over-quota owner. It returns mem.NoPage when
// owner holds no frames (the caller falls back to the global scan).
//
// The filtered CLOCK shares the global hand but gives other owners'
// frames a free pass — their access bits are NOT cleared, so arbitrated
// and global runs age foreign frames identically. The filtered Random
// scan draws from the same xorshift stream as the global one (acceptable
// because the two are never mixed within one run: a run either uses the
// arbiter everywhere or nowhere).
func (e *EPC) SelectVictimOwned(owner int) mem.PageID {
	if e.OwnerResident(owner) == 0 {
		return mem.NoPage
	}
	o := int32(owner)
	switch e.policy {
	case PolicyFIFO, PolicyLRU:
		return e.victimByMinOwned(o)
	case PolicyRandom:
		return e.victimRandomOwned(o)
	}
	for sweep := 0; sweep < 2*len(e.frames); sweep++ {
		fr := &e.frames[e.hand]
		e.hand = (e.hand + 1) % len(e.frames)
		if fr.page == mem.NoPage || fr.owner != o {
			continue
		}
		if fr.accessed {
			fr.accessed = false
			e.accByOwner[fr.owner]--
			continue
		}
		return fr.page
	}
	// Unreachable: owner holds >= 1 frame, and two sweeps must find one
	// whose bit was cleared on the first pass.
	panic("epc: owned CLOCK failed to select a victim")
}

// victimByMinOwned scans for owner's occupied frame with the smallest
// stamp.
func (e *EPC) victimByMinOwned(owner int32) mem.PageID {
	victim := mem.NoPage
	best := uint64(0)
	for i := range e.frames {
		fr := &e.frames[i]
		if fr.page == mem.NoPage || fr.owner != owner {
			continue
		}
		if victim == mem.NoPage || fr.stamp < best {
			victim, best = fr.page, fr.stamp
		}
	}
	return victim
}

// victimRandomOwned picks a uniformly random frame held by owner
// (rejection sampling; terminates because the caller checked owner holds
// at least one frame).
func (e *EPC) victimRandomOwned(owner int32) mem.PageID {
	for {
		e.rnd ^= e.rnd << 13
		e.rnd ^= e.rnd >> 7
		e.rnd ^= e.rnd << 17
		fr := &e.frames[e.rnd%uint64(len(e.frames))]
		if fr.page != mem.NoPage && fr.owner == owner {
			return fr.page
		}
	}
}

// victimByMin scans for the occupied frame with the smallest stamp (the
// oldest load under FIFO, the oldest touch under LRU).
func (e *EPC) victimByMin() mem.PageID {
	victim := mem.NoPage
	best := uint64(0)
	for i := range e.frames {
		fr := &e.frames[i]
		if fr.page == mem.NoPage {
			continue
		}
		if victim == mem.NoPage || fr.stamp < best {
			victim, best = fr.page, fr.stamp
		}
	}
	return victim
}

// victimRandom picks a uniformly random occupied frame (deterministic
// xorshift so runs stay reproducible).
func (e *EPC) victimRandom() mem.PageID {
	for {
		e.rnd ^= e.rnd << 13
		e.rnd ^= e.rnd >> 7
		e.rnd ^= e.rnd << 17
		fr := &e.frames[e.rnd%uint64(len(e.frames))]
		if fr.page != mem.NoPage {
			return fr.page
		}
	}
}

// Preloaded reports whether page is resident and arrived via preloading.
func (e *EPC) Preloaded(page mem.PageID) bool {
	f, ok := e.pt.lookup(page)
	return ok && e.frames[f].preSlot != 0
}

// Accessed reports whether page is resident with its access bit set.
func (e *EPC) Accessed(page mem.PageID) bool {
	f, ok := e.pt.lookup(page)
	return ok && e.frames[f].accessed
}

// ScanPreloadBitsRange visits every resident preloaded page in
// [lo, hi) and reports it to visit together with its access bit. The
// kernel service thread piggybacks on its CLOCK access-bit scan to
// maintain DFP's PreloadedPageList; this method is that scan. In
// multi-enclave mode each enclave's service scan covers only its own
// ELRANGE slice of the shared EPC. When clear is true the preload bit of
// visited accessed pages is cleared so each correct preload is counted
// once.
//
// The scan walks only the preload lists of the owners whose ranges meet
// [lo, hi), so it costs those owners' preloaded frames, not the EPC's
// capacity. Visit order is unspecified, and visit must not modify the
// EPC.
func (e *EPC) ScanPreloadBitsRange(lo, hi mem.PageID, clear bool, visit func(page mem.PageID, accessed bool)) {
	if lo >= hi {
		return
	}
	last := len(e.preByOwner) - 1
	first := min(int(e.ownerOf(lo)), last)
	last = min(int(e.ownerOf(hi-1)), last)
	for o := first; o <= last; o++ {
		// Backwards, so a swap-removal moves an already visited frame
		// into the slot being cleared.
		for i := len(e.preByOwner[o]) - 1; i >= 0; i-- {
			f := e.preByOwner[o][i]
			fr := &e.frames[f]
			if fr.page < lo || fr.page >= hi {
				continue
			}
			visit(fr.page, fr.accessed)
			if clear && fr.accessed {
				e.unlistPreload(f)
			}
		}
	}
}

// listPreload sets frame f's preload bit by appending it to its owner's
// preload list.
func (e *EPC) listPreload(f FrameID) {
	fr := &e.frames[f]
	e.preByOwner[fr.owner] = append(e.preByOwner[fr.owner], f)
	fr.preSlot = int32(len(e.preByOwner[fr.owner]))
}

// unlistPreload clears frame f's preload bit by swap-removing it from its
// owner's preload list.
func (e *EPC) unlistPreload(f FrameID) {
	fr := &e.frames[f]
	list := e.preByOwner[fr.owner]
	i := fr.preSlot - 1
	moved := list[len(list)-1]
	list[i] = moved
	e.frames[moved].preSlot = i + 1
	e.preByOwner[fr.owner] = list[:len(list)-1]
	fr.preSlot = 0
}

// ResidentPages returns the resident page set in frame order; for tests
// and tooling.
func (e *EPC) ResidentPages() []mem.PageID {
	pages := make([]mem.PageID, 0, e.pt.size())
	for i := range e.frames {
		if p := e.frames[i].page; p != mem.NoPage {
			pages = append(pages, p)
		}
	}
	return pages
}

// CheckInvariants verifies internal consistency: the page table, frame
// table, free list, presence bitmap, per-owner counters and per-owner
// preload lists must agree. Tests call it after random operation
// sequences.
func (e *EPC) CheckInvariants() error {
	occupied := 0
	seen := make(map[FrameID]bool, len(e.frames))
	resByOwner := make([]int, len(e.resByOwner))
	accByOwner := make([]int, len(e.accByOwner))
	for i := range e.frames {
		fr := &e.frames[i]
		p := fr.page
		if p == mem.NoPage {
			if fr.preSlot != 0 || fr.accessed {
				return fmt.Errorf("epc: free frame %d has bits set (preSlot %d, accessed %v)",
					i, fr.preSlot, fr.accessed)
			}
			continue
		}
		occupied++
		seen[FrameID(i)] = true
		f, ok := e.pt.lookup(p)
		if !ok || f != FrameID(i) {
			return fmt.Errorf("epc: frame %d holds page %d, page table says (%d, %v)",
				i, p, f, ok)
		}
		if !e.present.Get(uint64(p)) {
			return fmt.Errorf("epc: resident page %d absent from presence bitmap", p)
		}
		if o := e.frames[i].owner; o != e.ownerOf(p) {
			return fmt.Errorf("epc: frame %d (page %d) stamped owner %d, range says %d",
				i, p, o, e.ownerOf(p))
		}
		resByOwner[fr.owner]++
		if fr.accessed {
			accByOwner[fr.owner]++
		}
		if s := fr.preSlot; s != 0 {
			list := e.preByOwner[fr.owner]
			if s < 0 || int(s) > len(list) || list[s-1] != FrameID(i) {
				return fmt.Errorf("epc: frame %d (page %d) has preSlot %d, not its slot in owner %d's preload list",
					i, p, s, fr.owner)
			}
		}
	}
	// Per-owner resident and access counters must agree with the frame
	// stamps and bits, and the residents sum to the occupied total.
	ownedTotal := 0
	for o, n := range resByOwner {
		if e.resByOwner[o] != n {
			return fmt.Errorf("epc: owner %d counter says %d resident, frames say %d",
				o, e.resByOwner[o], n)
		}
		if e.accByOwner[o] != accByOwner[o] {
			return fmt.Errorf("epc: owner %d counter says %d accessed, frames say %d",
				o, e.accByOwner[o], accByOwner[o])
		}
		ownedTotal += n
	}
	// Every preload-list entry is a resident frame of that owner whose
	// preSlot points back at the entry, which also rules out duplicates.
	for o, list := range e.preByOwner {
		for i, f := range list {
			fr := &e.frames[f]
			if fr.page == mem.NoPage || int(fr.owner) != o || int(fr.preSlot) != i+1 {
				return fmt.Errorf("epc: owner %d preload list slot %d holds frame %d (page %d, owner %d, preSlot %d)",
					o, i, f, fr.page, fr.owner, fr.preSlot)
			}
		}
	}
	if ownedTotal != occupied {
		return fmt.Errorf("epc: per-owner counts sum to %d, %d frames occupied",
			ownedTotal, occupied)
	}
	// Entry counts matching plus every occupied frame resolving back to
	// itself rules out stale or duplicated page-table entries.
	if e.pt.size() != occupied {
		return fmt.Errorf("epc: page table holds %d entries, %d frames occupied",
			e.pt.size(), occupied)
	}
	if occupied+len(e.free) != len(e.frames) {
		return fmt.Errorf("epc: %d mapped + %d free != %d frames",
			occupied, len(e.free), len(e.frames))
	}
	for _, f := range e.free {
		if seen[f] {
			return fmt.Errorf("epc: frame %d both free and mapped", f)
		}
		seen[f] = true
		if e.frames[f].page != mem.NoPage {
			return fmt.Errorf("epc: free frame %d holds page %d", f, e.frames[f].page)
		}
	}
	if got := e.present.Count(); got != uint64(occupied) {
		return fmt.Errorf("epc: presence bitmap count %d != %d resident", got, occupied)
	}
	return nil
}
