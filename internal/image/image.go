// Package image models the executable images Multiverse manipulates: the
// user program's ELF-like binary, the AeroKernel kernel image, and the
// "fat binary" that embeds the latter inside the former (section 3.5).
//
// The format is a real byte-level encoding with magic numbers, section
// tables, and symbol tables, because the Multiverse runtime genuinely
// parses the embedded AeroKernel binary out of its own executable at
// startup before asking the HVM to install it.
package image

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Section kinds.
type SectionKind uint32

const (
	SecText SectionKind = iota
	SecData
	SecBSS
	SecSymtab
	// SecAeroKernel is the fat-binary section that carries the embedded
	// AeroKernel image.
	SecAeroKernel
	// SecOverrides carries the Multiverse override configuration compiled
	// into the binary by the toolchain.
	SecOverrides
)

var kindNames = map[SectionKind]string{
	SecText:       ".text",
	SecData:       ".data",
	SecBSS:        ".bss",
	SecSymtab:     ".symtab",
	SecAeroKernel: ".hrt.aerokernel",
	SecOverrides:  ".hrt.overrides",
}

// String returns the conventional section name for the kind.
func (k SectionKind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("section(%d)", uint32(k))
}

// Section is one loadable or metadata section.
type Section struct {
	Name  string
	Kind  SectionKind
	VAddr uint64
	Data  []byte
}

// Symbol is one symbol-table entry. AeroKernel override resolution walks
// these.
type Symbol struct {
	Name string
	Addr uint64
	Size uint64
}

// Image is one executable image.
type Image struct {
	Name     string
	Entry    uint64
	Sections []Section
	Symbols  []Symbol
}

const (
	magic   = 0x4D564642 // "MVFB"
	version = 1
)

// Encode serializes the image into one exactly sized allocation:
// little-endian fixed-width integers, and strings and blobs as a uint32
// length followed by their bytes.
func (im *Image) Encode() []byte {
	n := 4 + 4 + 4 + len(im.Name) + 8 + 4
	for _, s := range im.Sections {
		n += 4 + len(s.Name) + 4 + 8 + 4 + len(s.Data)
	}
	n += 4
	for _, s := range im.Symbols {
		n += 4 + len(s.Name) + 8 + 8
	}
	le := binary.LittleEndian
	b := make([]byte, 0, n)
	b = le.AppendUint32(b, magic)
	b = le.AppendUint32(b, version)
	b = appendBytes(b, im.Name)
	b = le.AppendUint64(b, im.Entry)
	b = le.AppendUint32(b, uint32(len(im.Sections)))
	for _, s := range im.Sections {
		b = appendBytes(b, s.Name)
		b = le.AppendUint32(b, uint32(s.Kind))
		b = le.AppendUint64(b, s.VAddr)
		b = appendBytes(b, s.Data)
	}
	b = le.AppendUint32(b, uint32(len(im.Symbols)))
	for _, s := range im.Symbols {
		b = appendBytes(b, s.Name)
		b = le.AppendUint64(b, s.Addr)
		b = le.AppendUint64(b, s.Size)
	}
	return b
}

// appendBytes appends a length-prefixed string or blob.
func appendBytes[T string | []byte](b []byte, v T) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.b) {
		d.err = fmt.Errorf("image: truncated at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.err = fmt.Errorf("image: truncated at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) str() string {
	n := int(d.u32())
	if d.err != nil {
		return ""
	}
	if n < 0 || d.off+n > len(d.b) {
		d.err = fmt.Errorf("image: bad string length %d at offset %d", n, d.off)
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// blob returns a length-prefixed blob aliasing the encoded bytes, capped
// so an append copies; no code writes decoded section data. An empty blob
// decodes as nil.
func (d *decoder) blob() []byte {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.err = fmt.Errorf("image: bad blob length %d at offset %d", n, d.off)
		return nil
	}
	var b []byte
	if n > 0 {
		b = d.b[d.off : d.off+n : d.off+n]
	}
	d.off += n
	return b
}

// Decode parses an encoded image. Its sections' data alias b, so b must
// not change while the image is in use.
func Decode(b []byte) (*Image, error) {
	d := &decoder{b: b}
	if m := d.u32(); d.err == nil && m != magic {
		return nil, fmt.Errorf("image: bad magic %#x", m)
	}
	if v := d.u32(); d.err == nil && v != version {
		return nil, fmt.Errorf("image: unsupported version %d", v)
	}
	im := &Image{}
	im.Name = d.str()
	im.Entry = d.u64()
	nsec := int(d.u32())
	for i := 0; i < nsec && d.err == nil; i++ {
		var s Section
		s.Name = d.str()
		s.Kind = SectionKind(d.u32())
		s.VAddr = d.u64()
		s.Data = d.blob()
		im.Sections = append(im.Sections, s)
	}
	nsym := int(d.u32())
	for i := 0; i < nsym && d.err == nil; i++ {
		var s Symbol
		s.Name = d.str()
		s.Addr = d.u64()
		s.Size = d.u64()
		im.Symbols = append(im.Symbols, s)
	}
	if d.err != nil {
		return nil, d.err
	}
	return im, nil
}

// Section returns the first section of the given kind.
func (im *Image) Section(kind SectionKind) (*Section, bool) {
	for i := range im.Sections {
		if im.Sections[i].Kind == kind {
			return &im.Sections[i], true
		}
	}
	return nil, false
}

// AddSection appends a section.
func (im *Image) AddSection(s Section) { im.Sections = append(im.Sections, s) }

// Symbol finds a symbol by name.
func (im *Image) Symbol(name string) (Symbol, bool) {
	for _, s := range im.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// SortSymbols orders the symbol table by address (what a linker emits and
// what a symbol cache can binary-search).
func (im *Image) SortSymbols() {
	sort.Slice(im.Symbols, func(i, j int) bool { return im.Symbols[i].Addr < im.Symbols[j].Addr })
}

// Size returns the total loadable byte size.
func (im *Image) Size() int {
	n := 0
	for _, s := range im.Sections {
		n += len(s.Data)
	}
	return n
}

// EmbedAeroKernel returns a fat binary: a copy of user with the encoded
// AeroKernel image and override configuration attached as extra sections —
// what the Multiverse toolchain's link step produces.
func EmbedAeroKernel(user, kernel *Image, overrides []byte) *Image {
	fat := &Image{
		Name:     user.Name,
		Entry:    user.Entry,
		Sections: append([]Section(nil), user.Sections...),
		Symbols:  append([]Symbol(nil), user.Symbols...),
	}
	fat.AddSection(Section{
		Name: SecAeroKernel.String(),
		Kind: SecAeroKernel,
		Data: kernel.Encode(),
	})
	if overrides != nil {
		fat.AddSection(Section{
			Name: SecOverrides.String(),
			Kind: SecOverrides,
			Data: append([]byte(nil), overrides...),
		})
	}
	return fat
}

// ExtractAeroKernel parses the embedded AeroKernel image back out of a fat
// binary — what the Multiverse runtime component does at program startup
// (section 3.5, "AeroKernel Boot"). The image's section data alias fat's.
func ExtractAeroKernel(fat *Image) (*Image, error) {
	sec, ok := fat.Section(SecAeroKernel)
	if !ok {
		return nil, fmt.Errorf("image: %s has no embedded AeroKernel (not a fat binary?)", fat.Name)
	}
	return Decode(sec.Data)
}

// ExtractOverrides returns the override configuration embedded in a fat
// binary, or nil if none was compiled in.
func ExtractOverrides(fat *Image) []byte {
	sec, ok := fat.Section(SecOverrides)
	if !ok {
		return nil
	}
	return append([]byte(nil), sec.Data...)
}

// MultibootTag mirrors the multiboot2-extension boot information the HVM
// hands the AeroKernel (the paper's boot protocol is "an extension of the
// multiboot2 standard").
type MultibootTag struct {
	Type uint32
	Data uint64
}

// Multiboot tag types used by the HRT boot protocol.
const (
	TagHRTFlags   uint32 = 0xF00D0001 // HRT capability flags
	TagFirstHRTPA uint32 = 0xF00D0002 // first physical address private to the HRT
	TagCommChan   uint32 = 0xF00D0003 // physical address of the VMM<->HRT shared data page
	TagAPICCount  uint32 = 0xF00D0004 // number of HRT cores
)

// HRT capability flags for TagHRTFlags.
const (
	HRTFlagMergeCapable uint64 = 1 << 0 // HRT supports address-space mergers
	HRTFlagIdentityHigh uint64 = 1 << 1 // HRT expects higher-half identity map
)
