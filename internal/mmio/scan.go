package mmio

import (
	"fmt"
	"math"
	"strconv"

	"nwhy/internal/sparse"
)

// This file is the byte-level scanning core of the Matrix Market readers:
// one entry loop (scanEntries) under both, so any line one accepts the other
// accepts with the same value. The helpers are ASCII-only (Matrix Market is
// an ASCII format) and allocation-free — a worker scanning its chunk of a
// large file touches the heap only to report an error.

// scanEntries parses the entry lines of chunk, a newline-aligned byte range
// of a file declared rows x cols, into edges (and weights, when weighted),
// which must hold a slot for every line of chunk. It returns how many it
// wrote, or the error of the first bad line.
//
// The line every generator and every paper input writes — digits, one
// space, digits, '\n' on a pattern file — is parsed where it lies: two
// multiply-add loops and the range check. Anything else (a sign, a tab, a
// blank before or after, "\r\n", a third field, a comment, an empty or an
// unterminated line, an index of more than 18 digits or outside the declared
// shape, a weighted file) takes the general path for that line, which alone
// decides what is accepted, with which value, and what every error says.
func scanEntries(chunk []byte, weighted bool, rows, cols int, edges []sparse.Edge, weights []float64) (int, error) {
	n := 0
	for len(chunk) > 0 {
		if !weighted {
			var i, j uint64 // 18 digits cannot overflow; more are turned away below
			p := 0
			for ; p < len(chunk) && chunk[p]-'0' <= 9; p++ {
				i = i*10 + uint64(chunk[p]-'0')
			}
			sep := p
			if p < len(chunk) && chunk[p] == ' ' {
				for p++; p < len(chunk) && chunk[p]-'0' <= 9; p++ {
					j = j*10 + uint64(chunk[p]-'0')
				}
			}
			// No digits leave an index 0: i-1 and j-1 wrap out of range.
			if p < len(chunk) && chunk[p] == '\n' && sep <= 18 && p-sep <= 19 &&
				i-1 < uint64(rows) && j-1 < uint64(cols) {
				edges[n] = sparse.Edge{U: uint32(i - 1), V: uint32(j - 1)}
				n++
				chunk = chunk[p+1:]
				continue
			}
		}
		var line []byte
		line, chunk = nextLine(chunk)
		line = trimASCII(line)
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		i, j, w, ok := parseEntryBytes(line, weighted)
		if !ok {
			return n, fmt.Errorf("mmio: bad entry %q", line)
		}
		if i < 1 || i > int64(rows) || j < 1 || j > int64(cols) {
			return n, fmt.Errorf("mmio: entry (%d,%d) outside %dx%d", i, j, rows, cols)
		}
		edges[n] = sparse.Edge{U: uint32(i - 1), V: uint32(j - 1)}
		if weighted {
			weights[n] = w
		}
		n++
	}
	return n, nil
}

// isSpaceASCII reports whether c is ASCII whitespace.
func isSpaceASCII(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// trimASCII returns b without leading and trailing ASCII whitespace.
func trimASCII(b []byte) []byte {
	for len(b) > 0 && isSpaceASCII(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpaceASCII(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// nextField splits the first whitespace-delimited token off b. The returned
// rest has its leading whitespace consumed, so a caller detects "no more
// fields" as len(rest) == 0.
func nextField(b []byte) (tok, rest []byte) {
	i := 0
	for i < len(b) && !isSpaceASCII(b[i]) {
		i++
	}
	tok, rest = b[:i], b[i:]
	for len(rest) > 0 && isSpaceASCII(rest[0]) {
		rest = rest[1:]
	}
	return tok, rest
}

// nextLine splits data at the first newline, stripping one trailing '\r'
// from the line — the same framing bufio.ScanLines produces, so chunked
// parsing sees byte-identical lines to a Scanner over the whole stream.
func nextLine(data []byte) (line, rest []byte) {
	for i, c := range data {
		if c == '\n' {
			line, rest = data[:i], data[i+1:]
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
			return line, rest
		}
	}
	line = data
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// parseIntCap bounds parseIntBytes so the accumulator cannot overflow:
// anything above ~4.6e18 is rejected, far beyond any dimension or entry
// count a coordinate file can mean.
const parseIntCap = int64(1) << 62

// parseIntBytes parses a decimal integer with an optional sign.
func parseIntBytes(tok []byte) (int64, bool) {
	if len(tok) == 0 {
		return 0, false
	}
	neg := false
	switch tok[0] {
	case '+':
		tok = tok[1:]
	case '-':
		neg = true
		tok = tok[1:]
	}
	if len(tok) == 0 {
		return 0, false
	}
	var v int64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		if v > parseIntCap/10 {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// pow10 holds the powers of ten exactly representable as float64, the
// domain of the fast-path float conversion below.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseFloatBytes parses a float64. The fast path is Clinger's exact case —
// mantissa below 2^53 and decimal exponent within ±22, where one multiply
// or divide by an exact power of ten is correctly rounded — which covers
// essentially every weight a Matrix Market file carries without allocating.
// Everything else (huge mantissas, extreme exponents, inf/nan spellings)
// falls back to strconv.ParseFloat, so accepted values are bit-identical to
// the standard library's in all cases.
func parseFloatBytes(tok []byte) (float64, bool) {
	if len(tok) == 0 {
		return 0, false
	}
	s := tok
	neg := false
	switch s[0] {
	case '+':
		s = s[1:]
	case '-':
		neg = true
		s = s[1:]
	}
	var mant uint64
	digits, frac := 0, 0
	i := 0
	const mantCap = (uint64(1)<<53 - 10) / 10
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		if mant > mantCap {
			return parseFloatSlow(tok)
		}
		mant = mant*10 + uint64(s[i]-'0')
		digits++
	}
	if i < len(s) && s[i] == '.' {
		i++
		for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
			if mant > mantCap {
				return parseFloatSlow(tok)
			}
			mant = mant*10 + uint64(s[i]-'0')
			digits++
			frac++
		}
	}
	if digits == 0 {
		return parseFloatSlow(tok) // "inf", "nan", lone "." — let strconv decide
	}
	exp := 0
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		eneg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			eneg = s[i] == '-'
			i++
		}
		edigits := 0
		for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
			if exp < 10000 {
				exp = exp*10 + int(s[i]-'0')
			}
			edigits++
		}
		if edigits == 0 {
			return parseFloatSlow(tok) // "1e", "1e+" — invalid, strconv rejects
		}
		if eneg {
			exp = -exp
		}
	}
	if i != len(s) {
		return parseFloatSlow(tok) // trailing junk — invalid, strconv rejects
	}
	exp -= frac
	if exp < -22 || exp > 22 {
		return parseFloatSlow(tok)
	}
	f := float64(mant)
	if exp >= 0 {
		f *= pow10[exp]
	} else {
		f /= pow10[-exp]
	}
	if neg {
		f = -f
	}
	return f, true
}

func parseFloatSlow(tok []byte) (float64, bool) {
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// parseEntryBytes parses one coordinate line into its 1-based indices and
// weight. The field count must be exact — two fields for pattern entries,
// three for weighted — so a line with trailing garbage columns is rejected
// instead of silently ignored.
func parseEntryBytes(line []byte, weighted bool) (i, j int64, w float64, ok bool) {
	tok, rest := nextField(line)
	i, ok = parseIntBytes(tok)
	if !ok {
		return 0, 0, 0, false
	}
	tok, rest = nextField(rest)
	j, ok = parseIntBytes(tok)
	if !ok {
		return 0, 0, 0, false
	}
	w = 1.0
	if weighted {
		tok, rest = nextField(rest)
		w, ok = parseFloatBytes(tok)
		if !ok {
			return 0, 0, 0, false
		}
	}
	if len(rest) != 0 {
		return 0, 0, 0, false // extra fields
	}
	return i, j, w, true
}

// parseSizeLine parses the "rows cols nnz" size line. Dimensions are capped
// at what a uint32 entry index can address and nnz at what fits an int, so a
// lying header cannot push the readers into index overflow.
func parseSizeLine(line []byte) (rows, cols, nnz int, ok bool) {
	f1, rest := nextField(line)
	f2, rest := nextField(rest)
	f3, rest := nextField(rest)
	if len(rest) != 0 {
		return 0, 0, 0, false
	}
	r, ok1 := parseIntBytes(f1)
	c, ok2 := parseIntBytes(f2)
	z, ok3 := parseIntBytes(f3)
	if !ok1 || !ok2 || !ok3 || r < 0 || c < 0 || z < 0 {
		return 0, 0, 0, false
	}
	if r > math.MaxUint32 || c > math.MaxUint32 || z > int64(math.MaxInt) {
		return 0, 0, 0, false
	}
	return int(r), int(c), int(z), true
}
