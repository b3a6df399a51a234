package trace

// Interner deduplicates decoded strings so every chunk of a trace shares one
// string object per distinct name. Event names repeat heavily both within
// and across chunks (kernel names, op annotations), and the decoders resolve
// every name through an interner: a hit costs no allocation at all — the
// map lookup with a []byte key compiles to a no-copy probe — so a warm
// streaming decode allocates strings only for names it has never seen.
//
// An Interner is not safe for concurrent use; each Reader owns one.
type Interner struct {
	m map[string]string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]string)}
}

// Intern returns the canonical string for b, allocating only on first sight.
func (in *Interner) Intern(b []byte) string {
	if s, ok := in.m[string(b)]; ok { // no-alloc lookup: key is not retained
		return s
	}
	s := string(b)
	in.m[s] = s
	return s
}
