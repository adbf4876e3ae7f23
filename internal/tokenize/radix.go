package tokenize

// radixCutoff is the key count below which SortByID falls back to an
// insertion sort: under it, the 256-bucket histogram of each radix pass
// costs more than the comparisons it saves.
const radixCutoff = 32

// SortByID sorts keys ascending by their high 32 bits — a gram ID —
// carrying the low 32 bits along as the caller's payload (typically the
// key's index in some parallel slice). IDs must be distinct, so the
// order is total and any correct sort yields the same slice.
//
// Large inputs take an LSD radix sort over 8-bit digits: one pass per
// significant byte of the largest ID, each a count, a prefix sum and a
// scatter, ping-ponging between keys and tmp — O(n) with no
// comparisons. Passes whose digit every key shares are skipped. tmp
// must be at least as long as keys; the sorted slice returned aliases
// one of the two.
func SortByID(keys, tmp []uint64) []uint64 {
	n := len(keys)
	if n < radixCutoff {
		for i := 1; i < n; i++ {
			k := keys[i]
			j := i
			for ; j > 0 && keys[j-1] > k; j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = k
		}
		return keys
	}
	var hi uint64
	for _, k := range keys {
		hi |= k
	}
	hi >>= 32
	src, dst := keys, tmp[:n]
	for shift := uint(32); shift < 64; shift += 8 {
		if shift > 32 && hi>>(shift-32) == 0 {
			break
		}
		var count [256]int
		for _, k := range src {
			count[(k>>shift)&0xff]++
		}
		if count[(src[0]>>shift)&0xff] == n {
			continue
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range src {
			d := (k >> shift) & 0xff
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	return src
}
