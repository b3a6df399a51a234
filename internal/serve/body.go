package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/maphash"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/fleet"
	"repro/internal/recycle"
	"repro/internal/trace"
)

// maxJSONBytes bounds the body of every route that takes a JSON one.
const maxJSONBytes = 1 << 20

// The body memos' bounds (DESIGN §9): a body longer than memoBodyBytes is
// decoded every time, and a memo holding memoBodies bodies is cleared before
// it takes another — at most 1 MiB of bodies per memo, each with what it
// decoded to, and as many hashes of bodies seen once (admit). They are
// consts, not Config fields: a hit saves a decode, never an Engine run, so no
// deployment has a reason to tune them.
const (
	memoBodies    = 256
	memoBodyBytes = 4 << 10
)

// bodyBuf is a JSON body read whole, and the reader its decode reads from.
type bodyBuf struct {
	b  []byte
	rd bytes.Reader
}

// bodyBufs keeps the buffers request bodies are read into, JSON bodies and
// chunk frames alike, across requests and traces. A buffer grown past
// keptBodyBytes is dropped rather than kept idle; the bound admits what a
// default trace.Writer sends, a frame under trace.DefaultChunkBytes, after
// ReadAll's regrowths. Eight idle buffers hold at most 16 MiB.
var bodyBufs = recycle.Stack[*bodyBuf]{Max: 8} // reads at once beyond eight allocate afresh

const keptBodyBytes = 2 * trace.DefaultChunkBytes

// readBody reads r's body, at most limit bytes of it, into a buffer off
// bodyBufs; the caller hands it back with releaseBody. Otherwise it writes
// bad_request, its message starting with what — 413 for a body over limit,
// whatever it holds, 400 for a read that failed — and reports false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, what string) (*bodyBuf, bool) {
	body, ok := bodyBufs.Get()
	if !ok {
		body = &bodyBuf{b: make([]byte, 0, 512)}
	}
	var err error
	body.b, err = recycle.ReadAll(body.b, http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		return body, true
	}
	releaseBody(body)
	// Declared past the return: errors.As moves it to the heap.
	var tooBig *http.MaxBytesError
	status := http.StatusBadRequest
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, ErrCodeBadRequest, what+err.Error())
	return nil, false
}

func releaseBody(body *bodyBuf) {
	if cap(body.b) <= keptBodyBytes {
		body.b = body.b[:0]
		body.rd.Reset(nil)
		bodyBufs.Put(body)
	}
}

// decodeJSON decodes body into v, which must be one JSON value with no field
// v lacks and nothing but white space after it. An empty body leaves v zero
// when emptyOK. Otherwise it writes 400 bad_request and reports false.
func decodeJSON(w http.ResponseWriter, body *bodyBuf, v any, emptyOK bool) bool {
	body.rd.Reset(body.b)
	dec := json.NewDecoder(&body.rd)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Token answers io.EOF exactly when only white space follows the
		// value.
		if _, err = dec.Token(); err == io.EOF {
			return true
		} else if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	} else if err == io.EOF && emptyOK {
		return true
	}
	writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad request body: "+err.Error())
	return false
}

// readJSON is the one JSON body reader of the routes that keep no memo:
// readBody, then decodeJSON into v.
func readJSON(w http.ResponseWriter, r *http.Request, v any, emptyOK bool) bool {
	body, ok := readBody(w, r, maxJSONBytes, "bad request body: ")
	if !ok {
		return false
	}
	defer releaseBody(body)
	return decodeJSON(w, body, v, emptyOK)
}

// bodyMemo maps exact request bodies to what a handler built from them — a
// decoded request, a compiled plan — so a repeated body costs one map lookup.
// It keeps a body the second time it sees it (admit): the first sight only
// records the body's hash, so traffic that never repeats a body costs a hash
// and a set insert per body, no copy and no allocation. A value is shared by
// every request that sends its body, so it is never modified. The zero value
// is an empty memo.
type bodyMemo[V any] struct {
	mu   sync.Mutex
	seen map[uint64]struct{} // hashes of bodies seen once and not kept
	m    map[string]V
}

var memoSeed = maphash.MakeSeed()

func (m *bodyMemo[V]) get(body []byte) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.m[string(body)]
	return v, ok
}

// admit reports whether the memo should keep body, which decoded fine: yes
// when body is at most memoBodyBytes long and was seen before since seen was
// last cleared. A hash collision admits a body early, which is harmless — the
// memo itself is keyed by the exact bytes.
func (m *bodyMemo[V]) admit(body []byte) bool {
	if len(body) > memoBodyBytes {
		return false
	}
	h := maphash.Bytes(memoSeed, body)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.seen[h]; ok {
		delete(m.seen, h)
		return true
	}
	if m.seen == nil {
		m.seen = make(map[uint64]struct{})
	} else if len(m.seen) >= memoBodies {
		clear(m.seen)
	}
	m.seen[h] = struct{}{}
	return false
}

// put keeps v for body, which admit admitted.
func (m *bodyMemo[V]) put(body []byte, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m == nil {
		m.m = make(map[string]V)
	} else if len(m.m) >= memoBodies {
		clear(m.m)
	}
	m.m[string(body)] = v
}

// analyzeRequest reads r's analyze body through the analyze memo and returns
// the plan it canonicalizes to. On a refusal it has written the error and
// reports false.
func (s *Server) analyzeRequest(w http.ResponseWriter, r *http.Request) (analyzePlan, bool) {
	body, ok := readBody(w, r, maxJSONBytes, "bad request body: ")
	if !ok {
		return analyzePlan{}, false
	}
	defer releaseBody(body)
	if plan, ok := s.analyzeBodies.get(body.b); ok {
		return *plan, true
	}
	// Declared past the hit: decodeJSON moves it to the heap.
	var req AnalyzeRequest
	if !decodeJSON(w, body, &req, true) {
		return analyzePlan{}, false
	}
	plan := analyzePlan{c: s.canonicalize(req)}
	if s.analyzeBodies.admit(body.b) {
		plan.tail, plan.roTail = keyTail(plan.c), keyTail(resultOnly(plan.c))
		kept := plan
		s.analyzeBodies.put(body.b, &kept)
	}
	return plan, true
}

// queryRequest reads r's query body through the query memo and returns the
// plan it compiles to and, when the memo keeps the plan, the selection it was
// last answered over (Server.query). On a refusal it has written the error
// and reports false.
func (s *Server) queryRequest(w http.ResponseWriter, r *http.Request) (*fleet.Plan, *atomic.Pointer[selection], bool) {
	body, ok := readBody(w, r, maxJSONBytes, "bad request body: ")
	if !ok {
		return nil, nil, false
	}
	defer releaseBody(body)
	if qp, ok := s.queryBodies.get(body.b); ok {
		return qp.plan, &qp.sel, true
	}
	var q fleet.Query
	if !decodeJSON(w, body, &q, false) {
		return nil, nil, false
	}
	plan, err := fleet.Compile(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, err.Error())
		return nil, nil, false
	}
	if !s.queryBodies.admit(body.b) {
		return plan, nil, true
	}
	qp := &queryPlan{plan: plan}
	s.queryBodies.put(body.b, qp)
	return plan, &qp.sel, true
}
