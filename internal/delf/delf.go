// Package delf defines DELF binaries: the in-memory ELF-analogue
// container for programs and shared libraries in the simulated system.
//
// A DELF file is either an executable (TypeExec, linked at a fixed
// base) or a position-independent shared library (TypeDyn, linked at
// base 0 and relocated by the loader or — for DynaCut's injected
// signal-handler library — by the image rewriter). Files carry
// sections, a symbol table, and relocation records; executables
// additionally carry a synthesized PLT/GOT so that calls into shared
// libraries go through patchable, wipeable trampolines exactly as on
// Linux/x86.
package delf

import (
	"errors"
	"fmt"
	"sort"
)

// Type distinguishes executables from shared libraries.
type Type uint8

// File types.
const (
	TypeExec Type = iota + 1
	TypeDyn
)

func (t Type) String() string {
	switch t {
	case TypeExec:
		return "EXEC"
	case TypeDyn:
		return "DYN"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Perm is a VMA/section permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
)

func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Well-known section names.
const (
	SecText   = ".text"
	SecPLT    = ".plt"
	SecROData = ".rodata"
	SecData   = ".data"
	SecGOT    = ".got"
	SecBSS    = ".bss"
)

// Section is a contiguous, uniformly-permissioned region of the file.
// Addr is absolute for executables and base-relative for libraries.
// BSS sections have Size > len(Data) == 0.
type Section struct {
	Name string
	Addr uint64
	Size uint64
	Perm Perm
	Data []byte
}

// End returns the first address past the section.
func (s *Section) End() uint64 { return s.Addr + s.Size }

// Contains reports whether addr falls inside the section.
func (s *Section) Contains(addr uint64) bool {
	return addr >= s.Addr && addr < s.End()
}

// SymKind distinguishes function symbols from data objects.
type SymKind uint8

// Symbol kinds.
const (
	SymFunc SymKind = iota + 1
	SymObject
)

// Symbol is a named address. Value follows the same absolute/relative
// convention as Section.Addr.
type Symbol struct {
	Name   string
	Value  uint64
	Size   uint64
	Kind   SymKind
	Global bool
}

// RelKind enumerates relocation types.
type RelKind uint8

// Relocation kinds.
//
//	RelPC32:  *(int32*)(P) = S + A - (P + 4)   — rel32 branch/LEA fields
//	RelAbs64: *(uint64*)(P) = S + A            — .quad label, mov =label
//	RelPLT32: like RelPC32 but S is the PLT entry synthesized for the
//	          (external) symbol.
//	RelGOT64: the 8-byte slot at P is a GOT entry to be filled with the
//	          runtime absolute address of the symbol, which lives in
//	          another library. Present only in TypeDyn files; resolved
//	          at load/injection time.
const (
	RelPC32 RelKind = iota + 1
	RelAbs64
	RelPLT32
	RelGOT64
)

func (k RelKind) String() string {
	switch k {
	case RelPC32:
		return "PC32"
	case RelAbs64:
		return "ABS64"
	case RelPLT32:
		return "PLT32"
	case RelGOT64:
		return "GOT64"
	default:
		return fmt.Sprintf("RelKind(%d)", uint8(k))
	}
}

// Reloc is one relocation record. Off is the address of the field to
// patch (same absolute/relative convention), Symbol the target name,
// Addend the constant A.
type Reloc struct {
	Off    uint64
	Kind   RelKind
	Symbol string
	Addend int64
}

// File is a linked or under-construction DELF binary. Binaries live
// only in memory; a machine keeps the loaded ones on its disk.
type File struct {
	Type     Type
	Name     string // soname / program name
	Entry    uint64 // entry point (TypeExec only)
	Sections []*Section
	Symbols  []Symbol
	// Relocs holds the *unresolved* relocations remaining in the
	// file: for TypeExec this is empty after linking; for TypeDyn it
	// is the dynamic relocation table (RelGOT64 against other
	// libraries, RelAbs64 against the library's own base).
	Relocs []Reloc
	// Needed lists sonames of libraries this file imports from.
	Needed []string
}

// Errors returned by lookup.
var (
	ErrNoSymbol  = errors.New("delf: symbol not found")
	ErrNoSection = errors.New("delf: section not found")
)

// Section returns the named section.
func (f *File) Section(name string) (*Section, error) {
	for _, s := range f.Sections {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w: %q in %s", ErrNoSection, name, f.Name)
}

// SectionAt returns the section containing addr.
func (f *File) SectionAt(addr uint64) (*Section, error) {
	for _, s := range f.Sections {
		if s.Contains(addr) {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w: no section at %#x in %s", ErrNoSection, addr, f.Name)
}

// Symbol returns the named symbol.
func (f *File) Symbol(name string) (Symbol, error) {
	for _, sym := range f.Symbols {
		if sym.Name == name {
			return sym, nil
		}
	}
	return Symbol{}, fmt.Errorf("%w: %q in %s", ErrNoSymbol, name, f.Name)
}

// SymbolAt returns the function symbol covering addr, if any.
func (f *File) SymbolAt(addr uint64) (Symbol, bool) {
	for _, sym := range f.Symbols {
		if sym.Kind == SymFunc && addr >= sym.Value && addr < sym.Value+sym.Size {
			return sym, true
		}
	}
	return Symbol{}, false
}

// TextSize returns the size of .text in bytes, 0 if absent.
func (f *File) TextSize() uint64 {
	if s, err := f.Section(SecText); err == nil {
		return s.Size
	}
	return 0
}

// ImageSpan returns the [lo, hi) virtual address range covered by all
// sections.
func (f *File) ImageSpan() (lo, hi uint64) {
	if len(f.Sections) == 0 {
		return 0, 0
	}
	lo = f.Sections[0].Addr
	for _, s := range f.Sections {
		if s.Addr < lo {
			lo = s.Addr
		}
		if s.End() > hi {
			hi = s.End()
		}
	}
	return lo, hi
}

// SortedFuncs returns global function symbols sorted by address.
func (f *File) SortedFuncs() []Symbol {
	var out []Symbol
	for _, s := range f.Symbols {
		if s.Kind == SymFunc {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}
