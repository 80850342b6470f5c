package image

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleImage() *Image {
	return &Image{
		Name:  "sample",
		Entry: 0x401000,
		Sections: []Section{
			{Name: ".text", Kind: SecText, VAddr: 0x400000, Data: []byte{0x90, 0xC3}},
			{Name: ".data", Kind: SecData, VAddr: 0x600000, Data: []byte{1, 2, 3}},
		},
		Symbols: []Symbol{
			{Name: "main", Addr: 0x401000, Size: 64},
			{Name: "helper", Addr: 0x401100, Size: 32},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	img := sampleImage()
	dec, err := Decode(img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img, dec) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", img, dec)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0xFF}, 64),
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: garbage decoded", i)
		}
	}
	// Truncations of a valid image must error, not panic.
	full := sampleImage().Encode()
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := Decode(full[:cut]); err == nil {
			t.Errorf("truncation at %d decoded", cut)
		}
	}
}

func TestSectionAndSymbolLookup(t *testing.T) {
	img := sampleImage()
	s, ok := img.Section(SecData)
	if !ok || s.Name != ".data" {
		t.Error("Section(SecData) failed")
	}
	if _, ok := img.Section(SecAeroKernel); ok {
		t.Error("found a section that does not exist")
	}
	sym, ok := img.Symbol("helper")
	if !ok || sym.Addr != 0x401100 {
		t.Error("Symbol lookup failed")
	}
	if _, ok := img.Symbol("nope"); ok {
		t.Error("found nonexistent symbol")
	}
}

func TestFatBinaryEmbedExtract(t *testing.T) {
	app := sampleImage()
	kernel := &Image{
		Name:  "nautilus.bin",
		Entry: 0xffff_8000_0010_0000,
		Symbols: []Symbol{
			{Name: "nk_thread_create", Addr: 0xffff_8000_0010_0200, Size: 512},
		},
	}
	overrides := []byte("override pthread_create => nk_thread_create\n")

	fat := EmbedAeroKernel(app, kernel, overrides)
	if len(fat.Sections) != len(app.Sections)+2 {
		t.Fatalf("fat sections = %d", len(fat.Sections))
	}
	// The original app must be untouched.
	if len(app.Sections) != 2 {
		t.Error("EmbedAeroKernel mutated the app image")
	}

	ak, err := ExtractAeroKernel(fat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ak, kernel) {
		t.Error("embedded kernel does not round-trip")
	}
	if got := ExtractOverrides(fat); !bytes.Equal(got, overrides) {
		t.Errorf("overrides = %q", got)
	}

	// A plain binary has neither.
	if _, err := ExtractAeroKernel(app); err == nil {
		t.Error("plain binary yielded an AeroKernel")
	}
	if ExtractOverrides(app) != nil {
		t.Error("plain binary yielded overrides")
	}
}

func TestSortSymbols(t *testing.T) {
	img := &Image{Symbols: []Symbol{{Name: "b", Addr: 30}, {Name: "a", Addr: 10}, {Name: "c", Addr: 20}}}
	img.SortSymbols()
	for i := 1; i < len(img.Symbols); i++ {
		if img.Symbols[i-1].Addr > img.Symbols[i].Addr {
			t.Fatal("not sorted by address")
		}
	}
}

func TestSize(t *testing.T) {
	if got := sampleImage().Size(); got != 5 {
		t.Errorf("Size = %d", got)
	}
}

func TestKindString(t *testing.T) {
	if SecAeroKernel.String() != ".hrt.aerokernel" {
		t.Errorf("kind name = %s", SecAeroKernel)
	}
	if SectionKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// Property: Encode/Decode round-trips arbitrary images.
func TestEncodeDecodeProperty(t *testing.T) {
	prop := func(name string, entry uint64, secName string, data []byte, symName string, addr, size uint64) bool {
		img := &Image{
			Name:     name,
			Entry:    entry,
			Sections: []Section{{Name: secName, Kind: SecText, VAddr: entry, Data: data}},
			Symbols:  []Symbol{{Name: symName, Addr: addr, Size: size}},
		}
		dec, err := Decode(img.Encode())
		if err != nil {
			return false
		}
		// Empty slices decode as nil; normalize before comparing.
		if len(data) == 0 {
			img.Sections[0].Data = nil
			dec.Sections[0].Data = nil
		}
		return reflect.DeepEqual(img, dec)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// referenceEncode is the original bytes.Buffer + binary.Write encoder,
// kept as the byte-level reference Encode must match.
func referenceEncode(im *Image) []byte {
	var buf bytes.Buffer
	w := func(v any) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	ws := func(s string) {
		w(uint32(len(s)))
		buf.WriteString(s)
	}
	wb := func(b []byte) {
		w(uint32(len(b)))
		buf.Write(b)
	}
	w(uint32(magic))
	w(uint32(version))
	ws(im.Name)
	w(im.Entry)
	w(uint32(len(im.Sections)))
	for _, s := range im.Sections {
		ws(s.Name)
		w(uint32(s.Kind))
		w(s.VAddr)
		wb(s.Data)
	}
	w(uint32(len(im.Symbols)))
	for _, s := range im.Symbols {
		ws(s.Name)
		w(s.Addr)
		w(s.Size)
	}
	return buf.Bytes()
}

// TestEncodeMatchesReference: Encode's bytes equal the reference
// encoder's for no, one and several sections and symbols, empty names
// and empty data included, and its output is sized exactly.
func TestEncodeMatchesReference(t *testing.T) {
	many := sampleImage()
	many.Sections = append(many.Sections,
		Section{Name: "", Kind: SecBSS, VAddr: 0x700000},
		Section{Name: ".hrt.aerokernel", Kind: SecAeroKernel, Data: []byte{}},
	)
	many.Symbols = append(many.Symbols, Symbol{Name: "", Addr: 1, Size: 0})
	cases := map[string]*Image{
		"empty": {},
		"one": {
			Name:     "one",
			Entry:    0xffff_8000_0000_0000,
			Sections: []Section{{Name: ".text", Kind: SecText, VAddr: 0x400000, Data: []byte{0xC3}}},
			Symbols:  []Symbol{{Name: "main", Addr: 0x400000, Size: 1}},
		},
		"empty-names-and-data": {
			Sections: []Section{{Kind: SecData}},
			Symbols:  []Symbol{{}},
		},
		"several":    many,
		"aerokernel": EmbedAeroKernel(sampleImage(), sampleImage(), []byte("override a => b\n")),
	}
	for name, img := range cases {
		got, want := img.Encode(), referenceEncode(img)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Encode = %x, reference %x", name, got, want)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: Encode sized %d bytes for %d", name, cap(got), len(got))
		}
	}
}
