// Package profile implements the continuous profiler: periodic windowed
// CPU/heap/goroutine captures via runtime/pprof, decoded by a minimal
// in-repo reader for the pprof profile.proto wire format (this file), folded
// into per-function flat/cum aggregates (fold.go), published onto the
// __profiles stream by each container's profile reporter (samza's
// profileCollector on a samza.Publisher). A runtime/metrics collector
// (runtime.go) feeds GC/scheduler/heap series into the ordinary typed
// registry so they ride __metrics unchanged.
//
// The decoder is deliberately tiny: it understands exactly the protobuf
// subset the Go runtime emits — varints, length-delimited messages, packed
// repeated integers — and extracts only what folding needs (sample types,
// sample stacks, the location→line→function tables, the string table).
// Everything else (mappings, labels, comments) is skipped field-by-field.
package profile

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
)

// ValueType is one sample-value dimension: ("cpu", "nanoseconds"),
// ("alloc_space", "bytes"), ("goroutine", "count"), ...
type ValueType struct {
	Type string
	Unit string
}

// Sample is one stack sample: location IDs leaf-first plus one value per
// declared sample type.
type Sample struct {
	LocationIDs []uint64
	Values      []int64
}

// Profile is a decoded pprof profile reduced to what per-function folding
// needs. Location and function tables stay ID-keyed; FuncsAt resolves a
// location to its function names (inlined frames leaf-first).
type Profile struct {
	SampleTypes   []ValueType
	Samples       []Sample
	TimeNanos     int64
	DurationNanos int64
	Period        int64
	PeriodType    ValueType

	// locFuncs maps a location ID to the function IDs of its lines,
	// leaf-most inlined frame first (the order profile.proto guarantees).
	locFuncs map[uint64][]uint64
	// funcNames maps a function ID to its name.
	funcNames map[uint64]string
}

// ValueIndex returns the index of the sample-value dimension with the given
// type name ("cpu", "samples", "alloc_space", "inuse_space", "goroutine"),
// or -1 when the profile does not carry it.
func (p *Profile) ValueIndex(typ string) int {
	for i, st := range p.SampleTypes {
		if st.Type == typ {
			return i
		}
	}
	return -1
}

// FuncsAt resolves one location ID to its function names, leaf-most inlined
// frame first. Unknown IDs and nameless functions resolve to nothing.
func (p *Profile) FuncsAt(loc uint64) []string {
	ids := p.locFuncs[loc]
	if len(ids) == 0 {
		return nil
	}
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if name := p.funcNames[id]; name != "" {
			out = append(out, name)
		}
	}
	return out
}

// Parse decodes a pprof profile as written by runtime/pprof — gzip-wrapped
// profile.proto — into the reduced Profile. Raw (un-gzipped) proto bytes
// are accepted too, for tests that build profiles by hand.
func Parse(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if cerr := zr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		data = raw
	}
	p := &Profile{
		locFuncs:  map[uint64][]uint64{},
		funcNames: map[uint64]string{},
	}
	// First pass collects the raw messages; string-table indices resolve
	// afterwards because the table interleaves with its referents.
	var strtab []string
	type vt struct{ typ, unit int64 }
	var sampleTypes []vt
	var periodType vt
	type fn struct {
		id   uint64
		name int64
	}
	var funcs []fn
	d := wireDecoder{buf: data}
	for !d.done() {
		num, typ, err := d.tag()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type: repeated ValueType
			msg, err := d.bytesField(typ)
			if err != nil {
				return nil, err
			}
			t, u, err := parseValueType(msg)
			if err != nil {
				return nil, err
			}
			sampleTypes = append(sampleTypes, vt{t, u})
		case 2: // sample: repeated Sample
			msg, err := d.bytesField(typ)
			if err != nil {
				return nil, err
			}
			s, err := parseSample(msg)
			if err != nil {
				return nil, err
			}
			p.Samples = append(p.Samples, s)
		case 4: // location: repeated Location
			msg, err := d.bytesField(typ)
			if err != nil {
				return nil, err
			}
			id, fns, err := parseLocation(msg)
			if err != nil {
				return nil, err
			}
			p.locFuncs[id] = fns
		case 5: // function: repeated Function
			msg, err := d.bytesField(typ)
			if err != nil {
				return nil, err
			}
			id, name, err := parseFunction(msg)
			if err != nil {
				return nil, err
			}
			funcs = append(funcs, fn{id: id, name: name})
		case 6: // string_table: repeated string
			msg, err := d.bytesField(typ)
			if err != nil {
				return nil, err
			}
			strtab = append(strtab, string(msg))
		case 9: // time_nanos
			v, err := d.intField(typ)
			if err != nil {
				return nil, err
			}
			p.TimeNanos = v
		case 10: // duration_nanos
			v, err := d.intField(typ)
			if err != nil {
				return nil, err
			}
			p.DurationNanos = v
		case 11: // period_type
			msg, err := d.bytesField(typ)
			if err != nil {
				return nil, err
			}
			t, u, err := parseValueType(msg)
			if err != nil {
				return nil, err
			}
			periodType = vt{t, u}
		case 12: // period
			v, err := d.intField(typ)
			if err != nil {
				return nil, err
			}
			p.Period = v
		default:
			if err := d.skip(typ); err != nil {
				return nil, err
			}
		}
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strtab)) {
			return ""
		}
		return strtab[i]
	}
	for _, st := range sampleTypes {
		p.SampleTypes = append(p.SampleTypes, ValueType{Type: str(st.typ), Unit: str(st.unit)})
	}
	p.PeriodType = ValueType{Type: str(periodType.typ), Unit: str(periodType.unit)}
	for _, f := range funcs {
		p.funcNames[f.id] = str(f.name)
	}
	return p, nil
}

// parseValueType reads a ValueType message: type (1) and unit (2), both
// string-table indices.
func parseValueType(msg []byte) (typ, unit int64, err error) {
	d := wireDecoder{buf: msg}
	for !d.done() {
		num, wt, err := d.tag()
		if err != nil {
			return 0, 0, err
		}
		switch num {
		case 1:
			if typ, err = d.intField(wt); err != nil {
				return 0, 0, err
			}
		case 2:
			if unit, err = d.intField(wt); err != nil {
				return 0, 0, err
			}
		default:
			if err := d.skip(wt); err != nil {
				return 0, 0, err
			}
		}
	}
	return typ, unit, nil
}

// parseSample reads a Sample message: location_id (1, packed uint64) and
// value (2, packed int64). Labels (3) are skipped.
func parseSample(msg []byte) (Sample, error) {
	var s Sample
	d := wireDecoder{buf: msg}
	for !d.done() {
		num, wt, err := d.tag()
		if err != nil {
			return s, err
		}
		switch num {
		case 1:
			ids, err := d.packedUints(wt)
			if err != nil {
				return s, err
			}
			s.LocationIDs = append(s.LocationIDs, ids...)
		case 2:
			vals, err := d.packedUints(wt)
			if err != nil {
				return s, err
			}
			for _, v := range vals {
				s.Values = append(s.Values, int64(v))
			}
		default:
			if err := d.skip(wt); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

// parseLocation reads a Location message: id (1) and the function IDs of
// its Line messages (4), leaf-most inlined frame first.
func parseLocation(msg []byte) (id uint64, funcIDs []uint64, err error) {
	d := wireDecoder{buf: msg}
	for !d.done() {
		num, wt, err := d.tag()
		if err != nil {
			return 0, nil, err
		}
		switch num {
		case 1:
			v, err := d.intField(wt)
			if err != nil {
				return 0, nil, err
			}
			id = uint64(v)
		case 4:
			line, err := d.bytesField(wt)
			if err != nil {
				return 0, nil, err
			}
			fid, err := parseLine(line)
			if err != nil {
				return 0, nil, err
			}
			if fid != 0 {
				funcIDs = append(funcIDs, fid)
			}
		default:
			if err := d.skip(wt); err != nil {
				return 0, nil, err
			}
		}
	}
	return id, funcIDs, nil
}

// parseLine reads a Line message and returns its function_id (1).
func parseLine(msg []byte) (uint64, error) {
	var fid uint64
	d := wireDecoder{buf: msg}
	for !d.done() {
		num, wt, err := d.tag()
		if err != nil {
			return 0, err
		}
		if num == 1 {
			v, err := d.intField(wt)
			if err != nil {
				return 0, err
			}
			fid = uint64(v)
			continue
		}
		if err := d.skip(wt); err != nil {
			return 0, err
		}
	}
	return fid, nil
}

// parseFunction reads a Function message: id (1) and name (2, string-table
// index).
func parseFunction(msg []byte) (id uint64, name int64, err error) {
	d := wireDecoder{buf: msg}
	for !d.done() {
		num, wt, err := d.tag()
		if err != nil {
			return 0, 0, err
		}
		switch num {
		case 1:
			v, err := d.intField(wt)
			if err != nil {
				return 0, 0, err
			}
			id = uint64(v)
		case 2:
			if name, err = d.intField(wt); err != nil {
				return 0, 0, err
			}
		default:
			if err := d.skip(wt); err != nil {
				return 0, 0, err
			}
		}
	}
	return id, name, nil
}

// Protobuf wire types (the runtime emits only 0, 1 and 2; 5 is handled for
// completeness).
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// wireDecoder walks one protobuf message's bytes.
type wireDecoder struct {
	buf []byte
	pos int
}

func (d *wireDecoder) done() bool { return d.pos >= len(d.buf) }

// varint reads one base-128 varint.
func (d *wireDecoder) varint() (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; i < 10; i++ {
		if d.pos >= len(d.buf) {
			return 0, fmt.Errorf("profile: truncated varint at %d", d.pos)
		}
		b := d.buf[d.pos]
		d.pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
	return 0, fmt.Errorf("profile: varint overflow at %d", d.pos)
}

// tag reads one field tag and returns (field number, wire type).
func (d *wireDecoder) tag() (int, int, error) {
	v, err := d.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(v >> 3), int(v & 7), nil
}

// bytesField reads a length-delimited field's payload.
func (d *wireDecoder) bytesField(wt int) ([]byte, error) {
	if wt != wireBytes {
		return nil, fmt.Errorf("profile: want length-delimited field, got wire type %d", wt)
	}
	n, err := d.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)-d.pos) {
		return nil, fmt.Errorf("profile: field length %d past end", n)
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

// intField reads a scalar integer field (varint or fixed encodings).
func (d *wireDecoder) intField(wt int) (int64, error) {
	switch wt {
	case wireVarint:
		v, err := d.varint()
		return int64(v), err
	case wireFixed64:
		if d.pos+8 > len(d.buf) {
			return 0, fmt.Errorf("profile: truncated fixed64 at %d", d.pos)
		}
		var v uint64
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(d.buf[d.pos+i])
		}
		d.pos += 8
		return int64(v), nil
	case wireFixed32:
		if d.pos+4 > len(d.buf) {
			return 0, fmt.Errorf("profile: truncated fixed32 at %d", d.pos)
		}
		var v uint32
		for i := 3; i >= 0; i-- {
			v = v<<8 | uint32(d.buf[d.pos+i])
		}
		d.pos += 4
		return int64(v), nil
	default:
		return 0, fmt.Errorf("profile: want scalar field, got wire type %d", wt)
	}
}

// packedUints reads a repeated integer field in either encoding: one packed
// length-delimited run of varints (what the runtime writes) or a single
// unpacked varint element.
func (d *wireDecoder) packedUints(wt int) ([]uint64, error) {
	switch wt {
	case wireBytes:
		payload, err := d.bytesField(wt)
		if err != nil {
			return nil, err
		}
		inner := wireDecoder{buf: payload}
		var out []uint64
		for !inner.done() {
			v, err := inner.varint()
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	case wireVarint:
		v, err := d.varint()
		if err != nil {
			return nil, err
		}
		return []uint64{v}, nil
	default:
		return nil, fmt.Errorf("profile: want repeated int field, got wire type %d", wt)
	}
}

// skip discards one field's payload by wire type.
func (d *wireDecoder) skip(wt int) error {
	switch wt {
	case wireVarint:
		_, err := d.varint()
		return err
	case wireFixed64:
		if d.pos+8 > len(d.buf) {
			return fmt.Errorf("profile: truncated fixed64 at %d", d.pos)
		}
		d.pos += 8
		return nil
	case wireBytes:
		_, err := d.bytesField(wt)
		return err
	case wireFixed32:
		if d.pos+4 > len(d.buf) {
			return fmt.Errorf("profile: truncated fixed32 at %d", d.pos)
		}
		d.pos += 4
		return nil
	default:
		return fmt.Errorf("profile: unknown wire type %d", wt)
	}
}
