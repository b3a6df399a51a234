package trace

import "repro/internal/vclock"

// A hand-rolled parser for the sidecar JSON the Writer emits
// (json.Marshal of ChunkIndex). The streaming planner reads one sidecar per
// chunk; encoding/json costs ~40 allocations per document, which dominates
// the planning phase of a zero-alloc v2 analysis. This parser fills a
// caller-reused ChunkIndex with no allocations beyond map growth.
//
// It is deliberately conservative: any construct it does not recognize —
// unknown keys, floats, escaped strings — makes it report false, and the
// caller falls back to encoding/json. It accepts exactly the documents this
// package produces, which is the only hot path.

// parseSidecarInto parses data into ix, reusing ix.Procs and ix.Phases. It
// reports false (leaving ix in an undefined state) when the document strays
// from the shapes json.Marshal(ChunkIndex) produces.
func parseSidecarInto(data []byte, ix *ChunkIndex, in *Interner) bool {
	p := jparser{b: data}
	if !p.expect('{') {
		return false
	}
	if ix.Procs == nil {
		ix.Procs = map[ProcID]ProcSpan{}
	} else {
		clear(ix.Procs)
	}
	ix.Version, ix.Events, ix.Bytes = 0, 0, 0
	ix.Phases = ix.Phases[:0]
	first := true
	for {
		p.ws()
		if p.peek() == '}' {
			p.off++
			break
		}
		if !first && !p.expect(',') {
			return false
		}
		first = false
		key, ok := p.str()
		if !ok || !p.expect(':') {
			return false
		}
		switch string(key) {
		case "version":
			v, ok := p.int()
			if !ok {
				return false
			}
			ix.Version = int(v)
		case "events":
			v, ok := p.int()
			if !ok {
				return false
			}
			ix.Events = int(v)
		case "bytes":
			v, ok := p.int()
			if !ok {
				return false
			}
			ix.Bytes = v
		case "procs":
			if !p.procs(ix) {
				return false
			}
		case "phases":
			if !p.phases(ix, in) {
				return false
			}
		default:
			return false
		}
	}
	p.ws()
	return p.off == len(p.b)
}

type jparser struct {
	b   []byte
	off int
}

func (p *jparser) peek() byte {
	if p.off >= len(p.b) {
		return 0
	}
	return p.b[p.off]
}

func (p *jparser) ws() {
	for p.off < len(p.b) {
		switch p.b[p.off] {
		case ' ', '\t', '\n', '\r':
			p.off++
		default:
			return
		}
	}
}

func (p *jparser) expect(c byte) bool {
	p.ws()
	if p.peek() != c {
		return false
	}
	p.off++
	return true
}

// str parses a JSON string with no escapes, returning the raw bytes.
func (p *jparser) str() ([]byte, bool) {
	if !p.expect('"') {
		return nil, false
	}
	start := p.off
	for p.off < len(p.b) {
		switch p.b[p.off] {
		case '"':
			s := p.b[start:p.off]
			p.off++
			return s, true
		case '\\':
			return nil, false // escapes: fall back to encoding/json
		}
		p.off++
	}
	return nil, false
}

// int parses a (possibly negative) JSON integer; anything with a fraction or
// exponent bails.
func (p *jparser) int() (int64, bool) {
	p.ws()
	neg := false
	if p.peek() == '-' {
		neg = true
		p.off++
	}
	start := p.off
	var v int64
	for p.off < len(p.b) {
		c := p.b[p.off]
		if c < '0' || c > '9' {
			break
		}
		d := int64(c - '0')
		if v > (1<<63-1-d)/10 {
			return 0, false // overflow: not a document we produced
		}
		v = v*10 + d
		p.off++
	}
	if p.off == start {
		return 0, false
	}
	if c := p.peek(); c == '.' || c == 'e' || c == 'E' {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// procs parses {"<procID>": {"min_start":N,"max_end":N,"events":N}, ...}.
func (p *jparser) procs(ix *ChunkIndex) bool {
	if !p.expect('{') {
		return false
	}
	first := true
	for {
		p.ws()
		if p.peek() == '}' {
			p.off++
			return true
		}
		if !first && !p.expect(',') {
			return false
		}
		first = false
		key, ok := p.str()
		if !ok {
			return false
		}
		proc, ok := parseProcID(key)
		if !ok || !p.expect(':') || !p.expect('{') {
			return false
		}
		var sp ProcSpan
		firstField := true
		for {
			p.ws()
			if p.peek() == '}' {
				p.off++
				break
			}
			if !firstField && !p.expect(',') {
				return false
			}
			firstField = false
			field, ok := p.str()
			if !ok || !p.expect(':') {
				return false
			}
			v, ok := p.int()
			if !ok {
				return false
			}
			switch string(field) {
			case "min_start":
				sp.MinStart = vclock.Time(v)
			case "max_end":
				sp.MaxEnd = vclock.Time(v)
			case "events":
				sp.Events = int(v)
			default:
				return false
			}
		}
		ix.Procs[proc] = sp
	}
}

// phases parses the sidecar's phase-event array: Event marshals with its Go
// field names (the struct carries no tags).
func (p *jparser) phases(ix *ChunkIndex, in *Interner) bool {
	if !p.expect('[') {
		return false
	}
	first := true
	for {
		p.ws()
		if p.peek() == ']' {
			p.off++
			return true
		}
		if !first && !p.expect(',') {
			return false
		}
		first = false
		if !p.expect('{') {
			return false
		}
		var e Event
		firstField := true
		for {
			p.ws()
			if p.peek() == '}' {
				p.off++
				break
			}
			if !firstField && !p.expect(',') {
				return false
			}
			firstField = false
			field, ok := p.str()
			if !ok || !p.expect(':') {
				return false
			}
			if string(field) == "Name" {
				s, ok := p.str()
				if !ok {
					return false
				}
				if in != nil {
					e.Name = in.Intern(s)
				} else {
					e.Name = string(s)
				}
				continue
			}
			v, ok := p.int()
			if !ok {
				return false
			}
			switch string(field) {
			case "Kind":
				e.Kind = EventKind(v)
			case "Cat":
				e.Cat = Category(v)
			case "Overhead":
				e.Overhead = OverheadKind(v)
			case "Proc":
				e.Proc = ProcID(v)
			case "Start":
				e.Start = vclock.Time(v)
			case "End":
				e.End = vclock.Time(v)
			default:
				return false
			}
		}
		ix.Phases = append(ix.Phases, e)
	}
}

func parseProcID(b []byte) (ProcID, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	if b[0] == '-' {
		neg = true
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
		if v > 1<<31 {
			return 0, false
		}
	}
	if neg {
		v = -v
	}
	return ProcID(v), true
}
