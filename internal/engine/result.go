package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"hscsim/internal/system"
)

// EncodeResult renders a run's results in the engine's canonical form:
// the bytes json.Marshal writes for them, compact JSON with the fields
// in declaration order and the Stats keys sorted. These are the bytes
// the cache stores and the HTTP service returns; byte-for-byte equality
// of two encodings means the runs agreed on every metric and every
// counter. It writes them by hand into one buffer of the exact length,
// which it returns; json.Marshal stays the test oracle
// (FuzzEncodeResult).
//
// A Name, Config or Stats key that is not valid UTF-8 is an error:
// json.Marshal would rewrite it to U+FFFD, and the cache would serve
// bytes that decode to a different result.
func EncodeResult(res system.Results) ([]byte, error) {
	if !utf8.ValidString(res.Name) || !utf8.ValidString(res.Config) {
		return nil, fmt.Errorf("engine: result name %q or config %q is not valid UTF-8", res.Name, res.Config)
	}
	keys := make([]string, 0, len(res.Stats))
	for k := range res.Stats { //hsclint:deterministic — sorted below
		if !utf8.ValidString(k) {
			return nil, fmt.Errorf("engine: result counter %q is not valid UTF-8", k)
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)

	nums := [...]struct {
		key string
		v   uint64
	}{
		{`,"Cycles":`, res.Cycles},
		{`,"MemReads":`, res.MemReads},
		{`,"MemWrites":`, res.MemWrites},
		{`,"ProbesSent":`, res.ProbesSent},
		{`,"LLCHits":`, res.LLCHits},
		{`,"NoCBytes":`, res.NoCBytes},
	}
	n := len(`{"Name":,"Config":,"Stats":}`) + quotedLen(res.Name) + quotedLen(res.Config)
	for _, f := range nums {
		n += len(f.key) + uintLen(f.v)
	}
	if res.Stats == nil {
		n += len("null")
	} else {
		n += len("{}") + max(len(keys)-1, 0) // braces and commas
		for _, k := range keys {
			n += quotedLen(k) + len(":") + uintLen(res.Stats[k])
		}
	}

	b := make([]byte, 0, n)
	b = append(b, `{"Name":`...)
	b = appendQuoted(b, res.Name)
	b = append(b, `,"Config":`...)
	b = appendQuoted(b, res.Config)
	for _, f := range nums {
		b = append(b, f.key...)
		b = strconv.AppendUint(b, f.v, 10)
	}
	b = append(b, `,"Stats":`...)
	if res.Stats == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '{')
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendQuoted(b, k)
			b = append(b, ':')
			b = strconv.AppendUint(b, res.Stats[k], 10)
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// plainString reports whether json.Marshal writes s as '"' + s + '"':
// s is valid UTF-8 and holds no byte or rune that it escapes.
func plainString(s string) bool {
	ascii := true
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return ascii || utf8.ValidString(s) && !strings.ContainsRune(s, '\u2028') && !strings.ContainsRune(s, '\u2029')
}

// quotedLen is the length of s as json.Marshal spells it.
func quotedLen(s string) int {
	if plainString(s) {
		return len(s) + 2
	}
	q, _ := json.Marshal(s)
	return len(q)
}

// appendQuoted appends s as json.Marshal spells it. A string that
// needs escaping, which no simulated result has, takes json.Marshal's
// own spelling, as the decoder's str does.
func appendQuoted(b []byte, s string) []byte {
	if plainString(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	q, _ := json.Marshal(s)
	return append(b, q...)
}

// uintLen is the number of decimal digits of v.
func uintLen(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// DecodeResult parses a canonical result encoding: exactly the bytes
// EncodeResult writes, and nothing else. Fields come in declaration
// order without whitespace, numbers are unsigned decimals without
// leading zeros, Stats is null or an object whose keys strictly
// increase, and strings are escaped as encoding/json escapes them. For
// every input it accepts it returns what json.Unmarshal returns, a nil
// Stats staying distinct from an empty one; FuzzDecodeResult holds it
// to encoding/json both ways.
func DecodeResult(b []byte) (system.Results, error) {
	d := resultDecoder{b: b}
	res, ok := d.results()
	if !ok {
		return system.Results{}, fmt.Errorf("engine: corrupt result encoding: not canonical at byte %d", d.off)
	}
	return res, nil
}

// lastStatsKeys is the Stats key list of the most recently decoded
// result that differed from the one before. A decode whose keys equal
// it uses its strings instead of copying each key out of the input, so
// a decoded result holds only its map: every result of one topology has
// the same counters, and callers keep many results at once. It is a
// cache in the sync.Pool sense, replaced whole and never mutated; no
// result depends on what it holds.
var lastStatsKeys atomic.Pointer[[]string]

// resultDecoder consumes one canonical encoding; off is where it
// stopped.
type resultDecoder struct {
	b   []byte
	off int
}

func (d *resultDecoder) results() (system.Results, bool) {
	var r system.Results
	var ok bool
	if !d.lit(`{"Name":`) {
		return r, false
	}
	if r.Name, ok = d.text(); !ok || !d.lit(`,"Config":`) {
		return r, false
	}
	if r.Config, ok = d.text(); !ok {
		return r, false
	}
	for _, f := range [...]struct {
		key string
		v   *uint64
	}{
		{`,"Cycles":`, &r.Cycles},
		{`,"MemReads":`, &r.MemReads},
		{`,"MemWrites":`, &r.MemWrites},
		{`,"ProbesSent":`, &r.ProbesSent},
		{`,"LLCHits":`, &r.LLCHits},
		{`,"NoCBytes":`, &r.NoCBytes},
	} {
		if !d.lit(f.key) {
			return r, false
		}
		if *f.v, ok = d.uint(); !ok {
			return r, false
		}
	}
	if !d.lit(`,"Stats":`) {
		return r, false
	}
	if !d.lit("null") {
		if r.Stats, ok = d.stats(); !ok {
			return r, false
		}
	}
	return r, d.lit("}") && d.off == len(d.b)
}

// stats consumes a non-null Stats object.
func (d *resultDecoder) stats() (map[string]uint64, bool) {
	if !d.lit("{") {
		return nil, false
	}
	// Stats is the last field, so the colons left are one per counter
	// in a canonical encoding: the map gets its final size at once.
	// Each counter takes at least five bytes ("":0,), which bounds the
	// size a corrupt input can ask for.
	rest := d.b[d.off:]
	n := min(bytes.Count(rest, []byte{':'}), len(rest)/5)
	stats := make(map[string]uint64, n)
	if d.lit("}") {
		return stats, true
	}
	var prev []string
	if p := lastStatsKeys.Load(); p != nil {
		prev = *p
	}
	var keys []string // non-nil once a key differed from prev
	var last []byte
	for i := 0; ; i++ {
		kb, ok := d.str()
		if !ok || (i > 0 && bytes.Compare(last, kb) >= 0) || !d.lit(":") {
			return nil, false
		}
		v, ok := d.uint()
		if !ok {
			return nil, false
		}
		var k string
		if keys == nil && i < len(prev) && string(kb) == prev[i] {
			k = prev[i]
		} else {
			if keys == nil {
				keys = make([]string, i, max(i, n))
				copy(keys, prev)
			}
			k = string(kb)
			keys = append(keys, k)
		}
		stats[k] = v
		last = kb
		if d.lit("}") {
			break
		}
		if !d.lit(",") {
			return nil, false
		}
	}
	if keys != nil {
		next := keys // its own variable, so keys stays off the heap
		lastStatsKeys.Store(&next)
	}
	return stats, true
}

// lit consumes s.
func (d *resultDecoder) lit(s string) bool {
	if len(d.b)-d.off < len(s) || string(d.b[d.off:d.off+len(s)]) != s {
		return false
	}
	d.off += len(s)
	return true
}

// uint consumes an unsigned decimal without leading zeros that fits in
// a uint64.
func (d *resultDecoder) uint() (uint64, bool) {
	var n uint64
	i := d.off
	for ; i < len(d.b) && '0' <= d.b[i] && d.b[i] <= '9'; i++ {
		digit := uint64(d.b[i] - '0')
		if n > (math.MaxUint64-digit)/10 {
			return 0, false
		}
		n = n*10 + digit
	}
	if i == d.off || (d.b[d.off] == '0' && i > d.off+1) {
		return 0, false
	}
	d.off = i
	return n, true
}

// text consumes a string and copies it out.
func (d *resultDecoder) text() (string, bool) {
	s, ok := d.str()
	return string(s), ok
}

// str consumes a string token in json.Marshal's spelling and returns
// its contents. A token without escapes is returned as a slice of the
// input; it must not hold a byte or rune json.Marshal escapes. A token
// with escapes, which no simulated result has, is decoded by
// encoding/json and accepted only if json.Marshal writes the same token
// back.
func (d *resultDecoder) str() ([]byte, bool) {
	if d.off >= len(d.b) || d.b[d.off] != '"' {
		return nil, false
	}
	i := d.off + 1
	ascii, escaped := true, false
	for ; i < len(d.b) && d.b[i] != '"'; i++ {
		switch c := d.b[i]; {
		case c == '\\':
			escaped = true
			i++ // the escaped byte cannot end the token
		case c < 0x20, c == '<', c == '>', c == '&':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	if i >= len(d.b) {
		return nil, false
	}
	tok := d.b[d.off : i+1]
	d.off = i + 1
	if escaped {
		var s string
		if json.Unmarshal(tok, &s) != nil {
			return nil, false
		}
		if back, err := json.Marshal(s); err != nil || !bytes.Equal(back, tok) {
			return nil, false
		}
		return []byte(s), true
	}
	s := tok[1 : len(tok)-1]
	if !ascii && (!utf8.Valid(s) || bytes.ContainsRune(s, '\u2028') || bytes.ContainsRune(s, '\u2029')) {
		return nil, false
	}
	return s, true
}
