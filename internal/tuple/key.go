package tuple

// Key packing
//
// Indexes key rows by uint64 candidate keys. Workloads with composite
// primary keys (TPC-C's (warehouse, district, order, line) and friends) pack
// the components into one uint64 with fixed per-field bit widths. KeyPacker
// centralizes the layout so encode and decode cannot drift apart.

// KeyPacker packs fixed-width unsigned fields into a uint64, most
// significant field first, preserving lexicographic order of the fields.
type KeyPacker struct {
	widths []uint
	total  uint
}

// NewKeyPacker builds a packer for the given bit widths. The widths must sum
// to at most 64 bits; it panics otherwise because layouts are static
// workload properties.
func NewKeyPacker(widths ...uint) *KeyPacker {
	var total uint
	for _, w := range widths {
		if w == 0 || w > 64 {
			panic("tuple: key field width out of range")
		}
		total += w
	}
	if total > 64 {
		panic("tuple: key layout exceeds 64 bits")
	}
	return &KeyPacker{widths: append([]uint(nil), widths...), total: total}
}

// Pack packs the fields into a key. Each field must fit its declared width;
// it panics otherwise (a workload bug, not a runtime condition).
func (p *KeyPacker) Pack(fields ...uint64) uint64 {
	if len(fields) != len(p.widths) {
		panic("tuple: wrong number of key fields")
	}
	var k uint64
	for i, f := range fields {
		w := p.widths[i]
		if w < 64 && f >= 1<<w {
			panic("tuple: key field overflows declared width")
		}
		k = k<<w | f
	}
	return k
}
