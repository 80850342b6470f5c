package paging

import (
	"testing"
	"testing/quick"

	"multiverse/internal/mem"
)

// Property: after a merger, every lower-half mapping present in the ROS
// space resolves identically through the HRT space, and higher-half HRT
// mappings are untouched.
func TestMergerVisibilityProperty(t *testing.T) {
	pm := mem.NewFlat(4096)
	rosAS, err := NewAddressSpace(pm, 0, "ros")
	if err != nil {
		t.Fatal(err)
	}
	hrtAS, err := NewAddressSpace(pm, 0, "hrt")
	if err != nil {
		t.Fatal(err)
	}
	// A higher-half HRT mapping that must survive mergers.
	kframe, _ := pm.Alloc(0)
	kva := HigherHalfMin + 0x1000
	if err := hrtAS.Map(kva, kframe, PteWrite); err != nil {
		t.Fatal(err)
	}

	prop := func(rawVAs []uint32) bool {
		// Map a batch of arbitrary lower-half pages in the ROS.
		var vas []uint64
		for _, raw := range rawVAs {
			if len(vas) >= 8 {
				break
			}
			va := (uint64(raw) << 12) % (LowerHalfMax &^ 0xfff)
			f, err := pm.Alloc(0)
			if err != nil {
				return false
			}
			if err := rosAS.Map(va, f, PteUser|PteWrite); err != nil {
				// Already mapped from a previous iteration: fine.
				_ = pm.Free(f)
				continue
			}
			vas = append(vas, va)
		}
		if _, err := hrtAS.CopyLowerHalfFrom(rosAS); err != nil {
			return false
		}
		for _, va := range vas {
			rosPTE, _ := rosAS.Lookup(va)
			hrtPTE, _ := hrtAS.Lookup(va)
			if rosPTE != hrtPTE || hrtPTE&PtePresent == 0 {
				return false
			}
		}
		// Higher half untouched.
		kPTE, _ := hrtAS.Lookup(kva)
		return kPTE&PtePresent != 0 && mem.FrameOf(kPTE&0x000ffffffffff000) == kframe
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a delta re-merge (CopyTopEntriesFrom over exactly the slots
// whose top-level entry changed) leaves the HRT lower half identical to a
// fresh full copy, for arbitrary mutation batches.
func TestMergerDeltaEquivalenceProperty(t *testing.T) {
	prop := func(rawA, rawB []uint32) bool {
		pm := mem.NewFlat(2048)
		rosAS, err := NewAddressSpace(pm, 0, "ros")
		if err != nil {
			return false
		}
		fullAS, err := NewAddressSpace(pm, 0, "hrt-full")
		if err != nil {
			return false
		}
		deltaAS, err := NewAddressSpace(pm, 0, "hrt-delta")
		if err != nil {
			return false
		}
		mapBatch := func(raws []uint32) bool {
			n := 0
			for _, raw := range raws {
				if n >= 8 {
					break
				}
				va := (uint64(raw) << 12) % (LowerHalfMax &^ 0xfff)
				f, err := pm.Alloc(0)
				if err != nil {
					return false
				}
				if err := rosAS.Map(va, f, PteUser|PteWrite); err != nil {
					_ = pm.Free(f)
					continue
				}
				n++
			}
			return true
		}

		// Initial merge: both HRT views take the full lower half.
		if !mapBatch(rawA) {
			return false
		}
		if _, err := fullAS.CopyLowerHalfFrom(rosAS); err != nil {
			return false
		}
		if _, err := deltaAS.CopyLowerHalfFrom(rosAS); err != nil {
			return false
		}

		// Mutate the ROS and diff the top level — the generation protocol's
		// ground truth.
		var before [LowerHalfEntries]uint64
		for i := range before {
			before[i] = rosAS.TopEntry(i)
		}
		if !mapBatch(rawB) {
			return false
		}
		var changed []int
		for i := range before {
			if rosAS.TopEntry(i) != before[i] {
				changed = append(changed, i)
			}
		}

		// Re-merge: full copy vs delta copy must converge.
		if _, err := fullAS.CopyLowerHalfFrom(rosAS); err != nil {
			return false
		}
		if _, err := deltaAS.CopyTopEntriesFrom(rosAS, changed); err != nil {
			return false
		}
		for i := 0; i < LowerHalfEntries; i++ {
			if fullAS.TopEntry(i) != deltaAS.TopEntry(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
