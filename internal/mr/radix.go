package mr

import (
	"bytes"
	"slices"
)

// MSD radix sort over shuffle-key bytes, used by groupRecords to order
// the distinct keys of a large partition (one ref per key: the gather's
// key set has already folded the duplicates away). Shuffle keys are short
// byte-encoded tuples — the shape where a byte-histogram radix pass beats
// comparison sorting: one pass buckets every key by its leading byte.
//
// Both the radix path and the comparison fallback realize the same total
// order — plain lexicographic byte order on keys. The comparison
// fallback resolves on the packed 8-byte key prefix whenever it can:
// unequal prefixes order as uint64s (big-endian packing makes that
// lexicographic), equal prefixes with both keys within eight bytes order
// by length (the shorter key is a zero-padded prefix of the longer), and
// only longer keys fall back to a full byte compare. The radix path
// buckets on one prefix byte per level and finishes every small or
// prefix-exhausted bucket with the same comparison fallback, so the two
// paths are interchangeable (pinned by TestRadixMatchesComparisonSort).
const (
	// radixMinLen is the cutoff, in distinct keys of a partition, below
	// which groupRecords uses the comparison sort outright.
	radixMinLen = 512
	// radixBucketCutoff is the bucket size below which a radix level
	// hands off to the comparison sort.
	radixBucketCutoff = 96
)

// cmpRef compares two keyRefs in lexicographic key-byte order, prefix
// first.
func cmpRef(s *recordSet, a, b keyRef) int {
	if a.prefix != b.prefix {
		if a.prefix < b.prefix {
			return -1
		}
		return 1
	}
	ka, kb := s.key(int(a.idx)), s.key(int(b.idx))
	if len(ka) <= 8 && len(kb) <= 8 {
		return len(ka) - len(kb)
	}
	return bytes.Compare(ka, kb)
}

// sortRefs is the comparison sort over refs (pdqsort).
func sortRefs(s *recordSet, refs []keyRef) {
	slices.SortFunc(refs, func(a, b keyRef) int { return cmpRef(s, a, b) })
}

// msdRadix sorts refs in place by the key-prefix byte at the given level
// (0–7, most significant first), recursing into each bucket. tmp is
// scratch of the same length as refs. Buckets below radixBucketCutoff —
// and buckets whose 8-byte prefix is exhausted at level 8, where only
// same-prefix stragglers longer than eight bytes remain — finish with
// the comparison sort.
func msdRadix(s *recordSet, refs, tmp []keyRef, level int) {
	if len(refs) < radixBucketCutoff || level == 8 {
		sortRefs(s, refs)
		return
	}
	shift := uint(56 - 8*level)
	var counts [256]int
	for _, r := range refs {
		counts[byte(r.prefix>>shift)]++
	}
	var offs [257]int
	for b := 0; b < 256; b++ {
		offs[b+1] = offs[b] + counts[b]
	}
	pos := offs
	for _, r := range refs {
		b := byte(r.prefix >> shift)
		tmp[pos[b]] = r
		pos[b]++
	}
	copy(refs, tmp)
	for b := 0; b < 256; b++ {
		lo, hi := offs[b], offs[b+1]
		if hi-lo > 1 {
			msdRadix(s, refs[lo:hi], tmp[lo:hi], level+1)
		}
	}
}
