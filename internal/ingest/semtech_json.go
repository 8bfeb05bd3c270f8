package ingest

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The packet-forwarder JSON bodies are decoded by one hand-rolled scanner
// that validates and decodes in a single pass. It accepts exactly what
// encoding/json's Unmarshal accepts into the packet structs — RFC 8259
// syntax over the whole body (unknown values and "stat" included), the
// same nesting limit, integer fields only from in-range integer literals,
// kind mismatches rejected, null leaving the zero value, the same string
// unquoting — plus the key strictness below, and produces bit-identical
// values (floats go through strconv.ParseFloat over the literal's bytes).
// Every number literal, dropped values included, must also fit a float64:
// the strict-key token walk of the encoding/json path decoded each one.
// semtech_oracle_test.go keeps the encoding/json path as the differential
// oracle.
//
// Key strictness. encoding/json matches object keys to struct fields by
// simple Unicode case folding, so {"rXpk":[]} or {"tmſt":5} (U+017F, long
// s) would silently land in a field. Every object, at every depth, rejects
// two keys that are equal under strings.EqualFold, and rejects any key that
// fold-matches a protocol field name without spelling it exactly; keys
// unknown to the protocol pass, because forwarders add vendor fields.

// maxDepth is encoding/json's nesting limit: the 10001st open container
// is a syntax error.
const maxDepth = 10000

// field names a protocol JSON key; fUnknown is any other key.
type field uint8

const (
	fUnknown field = iota
	fRXPK
	fTXPK
	fStat
	fTxpkAck
	fError
	fTmst
	fTime
	fFreq
	fChan
	fRFCh
	fModu
	fDatr
	fCodr
	fRSSI
	fLSNR
	fSize
	fData
	fImme
	fPowe
	fIPol
	numFields
)

// fieldNames holds the exact protocol spelling of every field.
var fieldNames = [numFields]string{
	fRXPK: "rxpk", fTXPK: "txpk", fStat: "stat", fTxpkAck: "txpk_ack",
	fError: "error", fTmst: "tmst", fTime: "time", fFreq: "freq",
	fChan: "chan", fRFCh: "rfch", fModu: "modu", fDatr: "datr",
	fCodr: "codr", fRSSI: "rssi", fLSNR: "lsnr", fSize: "size",
	fData: "data", fImme: "imme", fPowe: "powe", fIPol: "ipol",
}

// lookupField maps an exactly spelled protocol key to its field.
func lookupField(k []byte) field {
	switch string(k) {
	case "rxpk":
		return fRXPK
	case "txpk":
		return fTXPK
	case "stat":
		return fStat
	case "txpk_ack":
		return fTxpkAck
	case "error":
		return fError
	case "tmst":
		return fTmst
	case "time":
		return fTime
	case "freq":
		return fFreq
	case "chan":
		return fChan
	case "rfch":
		return fRFCh
	case "modu":
		return fModu
	case "datr":
		return fDatr
	case "codr":
		return fCodr
	case "rssi":
		return fRSSI
	case "lsnr":
		return fLSNR
	case "size":
		return fSize
	case "data":
		return fData
	case "imme":
		return fImme
	case "powe":
		return fPowe
	case "ipol":
		return fIPol
	}
	return fUnknown
}

// interned maps the protocol's enumerated string values — modulations,
// LoRa datarates SF5–12 × BW125/250/500, coding rates and TX_ACK errors —
// to package-lifetime strings, so decoding them allocates nothing.
var interned = func() map[string]string {
	m := make(map[string]string)
	for _, s := range []string{
		"LORA", "FSK", "4/5", "4/6", "4/7", "4/8", "OFF",
		TxErrNone, TxErrTooLate, TxErrTooEarly, TxErrCollisionPacket,
		TxErrCollisionBeacon, TxErrTxFreq, TxErrTxPower, TxErrGPSUnlocked,
	} {
		m[s] = s
	}
	for sf := 5; sf <= 12; sf++ {
		for _, bw := range []int{125, 250, 500} {
			s := fmt.Sprintf("SF%dBW%d", sf, bw)
			m[s] = s
		}
	}
	return m
}()

// intern returns b as a string that never aliases b: the interned
// constant for a protocol value, else a fresh copy.
func intern(b []byte) string {
	if s, ok := interned[string(b)]; ok {
		return s
	}
	return string(b)
}

// jsonScanner is the single-pass decoder state. Its buffers live in a
// ParseScratch and grow to high-water across datagrams.
type jsonScanner struct {
	data []byte
	pos  int
	// stack holds skip's open containers.
	stack []frame
	// keys and kbuf hold the unknown keys of every open object, innermost
	// last, for the fold-duplicate check.
	keys []keySpan
	kbuf []byte
	// sbuf holds the unquoted bytes of the last string that needed
	// unescaping.
	sbuf []byte
}

// object is one open JSON object's key state.
type object struct {
	// seen has bit f set once protocol field f appeared.
	seen uint32
	// keyLo is the object's first entry in the scanner's key stack.
	keyLo int32
	// started is set once the first key has been read.
	started bool
}

// frame is one container skip has open.
type frame struct {
	isObj bool
	obj   object
}

// keySpan locates one unknown key's unquoted bytes in kbuf.
type keySpan struct{ lo, hi int32 }

func (s *jsonScanner) reset(data []byte) {
	s.data, s.pos = data, 0
	s.stack, s.keys, s.kbuf = s.stack[:0], s.keys[:0], s.kbuf[:0]
}

func (s *jsonScanner) errf(format string, args ...any) error {
	return fmt.Errorf("JSON offset %d: "+format, append([]any{s.pos}, args...)...)
}

func (s *jsonScanner) errEOF() error { return s.errf("unexpected end of input") }

func (s *jsonScanner) errChar(context string) error {
	return s.errf("invalid character %q %s", s.data[s.pos], context)
}

// ws skips JSON whitespace.
func (s *jsonScanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor after whitespace, 0 at end of input.
func (s *jsonScanner) peek() byte {
	s.ws()
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// end checks that only whitespace follows the top-level value.
func (s *jsonScanner) end() error {
	if s.peek() != 0 || s.pos < len(s.data) {
		return s.errChar("after top-level value")
	}
	return nil
}

// literal consumes one of true, false or null starting at the cursor.
func (s *jsonScanner) literal() error {
	var lit string
	switch s.data[s.pos] {
	case 't':
		lit = "true"
	case 'f':
		lit = "false"
	default:
		lit = "null"
	}
	if len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return s.errf("invalid literal, want %s", lit)
	}
	s.pos += len(lit)
	return nil
}

// number consumes a JSON number literal and returns its bytes.
func (s *jsonScanner) number() ([]byte, error) {
	d, i := s.data, s.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i >= len(d):
		s.pos = i
		return nil, s.errEOF()
	case d[i] == '0':
		i++
	case '1' <= d[i] && d[i] <= '9':
		for i++; i < len(d) && isDigit(d[i]); i++ {
		}
	default:
		s.pos = i
		return nil, s.errChar("in numeric literal")
	}
	if i < len(d) && d[i] == '.' {
		i++
		if i >= len(d) || !isDigit(d[i]) {
			s.pos = i
			return nil, s.errf("missing fraction digits")
		}
		for i++; i < len(d) && isDigit(d[i]); i++ {
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			s.pos = i
			return nil, s.errf("missing exponent digits")
		}
		for i++; i < len(d) && isDigit(d[i]); i++ {
		}
	}
	lit := d[s.pos:i]
	s.pos = i
	return lit, nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// hex4 decodes the four hex digits of a \u escape starting at i, or
// returns -1.
func (s *jsonScanner) hex4(i int) rune {
	if len(s.data)-i < 4 {
		return -1
	}
	var r rune
	for _, c := range s.data[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// str consumes the string at the cursor and returns its unquoted bytes
// as encoding/json unquotes them (invalid UTF-8 and lone surrogates
// become U+FFFD). The result is a sub-slice of the body when the string
// holds no escapes and is valid UTF-8, else the scanner's sbuf; either
// way it is only valid until the next call.
func (s *jsonScanner) str() ([]byte, error) {
	d := s.data
	s.pos++ // opening quote
	start := s.pos
	for s.pos < len(d) {
		c := d[s.pos]
		switch {
		case c == '"':
			s.pos++
			return d[start : s.pos-1], nil
		case c == '\\' || c < 0x20:
			return s.strSlow(start)
		case c < utf8.RuneSelf:
			s.pos++
		default:
			r, n := utf8.DecodeRune(d[s.pos:])
			if r == utf8.RuneError && n == 1 {
				return s.strSlow(start)
			}
			s.pos += n
		}
	}
	return nil, s.errEOF()
}

// strSlow finishes str for a string that needs unescaping or UTF-8
// repair, copying into sbuf.
func (s *jsonScanner) strSlow(start int) ([]byte, error) {
	d := s.data
	s.sbuf = s.sbuf[:0]
	s.sbuf = append(s.sbuf, d[start:s.pos]...)
	for s.pos < len(d) {
		c := d[s.pos]
		switch {
		case c == '"':
			s.pos++
			return s.sbuf, nil
		case c < 0x20:
			return nil, s.errChar("in string literal")
		case c == '\\':
			if s.pos+1 >= len(d) {
				return nil, s.errEOF()
			}
			s.pos++
			switch e := d[s.pos]; e {
			case '"', '\\', '/':
				s.sbuf = append(s.sbuf, e)
			case 'b':
				s.sbuf = append(s.sbuf, '\b')
			case 'f':
				s.sbuf = append(s.sbuf, '\f')
			case 'n':
				s.sbuf = append(s.sbuf, '\n')
			case 'r':
				s.sbuf = append(s.sbuf, '\r')
			case 't':
				s.sbuf = append(s.sbuf, '\t')
			case 'u':
				r := s.hex4(s.pos + 1)
				if r < 0 {
					return nil, s.errf("invalid \\u escape")
				}
				s.pos += 4
				if utf16.IsSurrogate(r) {
					// A surrogate pairs with an immediately following
					// \u escape or decodes to U+FFFD, which leaves that
					// escape to the next iteration.
					r2 := rune(-1)
					if s.pos+2 < len(d) && d[s.pos+1] == '\\' && d[s.pos+2] == 'u' {
						r2 = s.hex4(s.pos + 3)
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						s.pos += 6
					}
				}
				s.sbuf = utf8.AppendRune(s.sbuf, r)
			default:
				return nil, s.errChar("in string escape code")
			}
			s.pos++
		case c < utf8.RuneSelf:
			s.sbuf = append(s.sbuf, c)
			s.pos++
		default:
			r, n := utf8.DecodeRune(d[s.pos:])
			s.sbuf = utf8.AppendRune(s.sbuf, r)
			s.pos += n
		}
	}
	return nil, s.errEOF()
}

// nextKey advances an open object to its next member: it consumes the
// separator, the key and the ':', checks the key against the object's
// earlier keys and the protocol names, and returns the key's field with
// the cursor at the value. At the closing '}' it consumes it, drops the
// object's keys and returns ok = false.
func (s *jsonScanner) nextKey(o *object) (f field, ok bool, err error) {
	c := s.peek()
	if o.started {
		switch c {
		case ',':
			s.pos++
			c = s.peek()
		case '}':
			s.close(o)
			return 0, false, nil
		case 0:
			return 0, false, s.errEOF()
		default:
			return 0, false, s.errChar("after object key:value pair")
		}
	} else if c == '}' {
		s.close(o)
		return 0, false, nil
	}
	if c != '"' {
		if c == 0 {
			return 0, false, s.errEOF()
		}
		return 0, false, s.errChar("looking for beginning of object key string")
	}
	o.started = true
	k, err := s.str()
	if err != nil {
		return 0, false, err
	}
	if f = lookupField(k); f != fUnknown {
		if o.seen&(1<<f) != 0 {
			return 0, false, s.errf("duplicate JSON key %q", fieldNames[f])
		}
		o.seen |= 1 << f
	} else if err := s.unknownKey(o, k); err != nil {
		return 0, false, err
	}
	if s.peek() != ':' {
		if s.pos >= len(s.data) {
			return 0, false, s.errEOF()
		}
		return 0, false, s.errChar("after object key")
	}
	s.pos++
	return f, true, nil
}

// close consumes an object's '}' and drops its keys from the key stack.
func (s *jsonScanner) close(o *object) {
	s.pos++
	if int(o.keyLo) < len(s.keys) {
		s.kbuf = s.kbuf[:s.keys[o.keyLo].lo]
		s.keys = s.keys[:o.keyLo]
	}
}

// unknownKey applies the strictness rules to a key that is not an exact
// protocol field: it must not fold-match a protocol field nor an earlier
// key of the same object. Protocol fields need no pairwise check: an
// exact one is deduplicated by its seen bit, any other spelling is
// rejected here.
func (s *jsonScanner) unknownKey(o *object, k []byte) error {
	ks := string(k)
	for _, name := range fieldNames[1:] {
		if strings.EqualFold(ks, name) {
			return s.errf("JSON key %q mismatches protocol field %q", ks, name)
		}
	}
	for _, sp := range s.keys[o.keyLo:] {
		if prev := s.kbuf[sp.lo:sp.hi]; bytes.EqualFold(prev, k) {
			return s.errf("ambiguous JSON keys %q and %q in one object", prev, ks)
		}
	}
	lo := len(s.kbuf)
	s.kbuf = append(s.kbuf, k...)
	s.keys = append(s.keys, keySpan{int32(lo), int32(len(s.kbuf))})
	return nil
}

// skip validates the value at the cursor, nested depth containers deep,
// applying the key rules inside it, and discards it.
func (s *jsonScanner) skip(depth int) error {
	base := len(s.stack)
	for {
		// The cursor is at a value.
		switch c := s.peek(); {
		case c == '{' || c == '[':
			d := depth + len(s.stack) - base + 1
			if d > maxDepth {
				return s.errf("exceeded max depth")
			}
			s.pos++
			if c == '{' {
				s.stack = append(s.stack, frame{isObj: true, obj: object{keyLo: int32(len(s.keys))}})
			} else {
				s.stack = append(s.stack, frame{})
				if s.peek() != ']' {
					continue
				}
				s.pos++
				s.stack = s.stack[:len(s.stack)-1]
			}
		case c == '"':
			if _, err := s.str(); err != nil {
				return err
			}
		case c == 't' || c == 'f' || c == 'n':
			if err := s.literal(); err != nil {
				return err
			}
		case c == '-' || isDigit(c):
			lit, err := s.number()
			if err != nil {
				return err
			}
			if _, err := strconv.ParseFloat(string(lit), 64); err != nil {
				return s.errf("number %s overflows float64", lit)
			}
		case c == 0 && s.pos >= len(s.data):
			return s.errEOF()
		default:
			return s.errChar("looking for beginning of value")
		}
		// A value ended: advance the innermost open container to its
		// next value, closing containers that end.
	advance:
		for len(s.stack) > base {
			top := &s.stack[len(s.stack)-1]
			if top.isObj {
				_, ok, err := s.nextKey(&top.obj)
				if err != nil {
					return err
				}
				if ok {
					break advance
				}
			} else {
				switch s.peek() {
				case ',':
					s.pos++
					break advance
				case ']':
					s.pos++
				case 0:
					return s.errEOF()
				default:
					return s.errChar("after array element")
				}
			}
			s.stack = s.stack[:len(s.stack)-1]
		}
		if len(s.stack) == base {
			return nil
		}
	}
}

// errKind reports a value whose JSON kind does not fit the field.
func (s *jsonScanner) errKind(f field) error {
	name := fieldNames[f]
	if f == fUnknown {
		name = "body"
	}
	return s.errf("cannot decode %q value starting with %q", name, s.data[s.pos])
}

// scalar positions the cursor at a field's value and classifies it: null
// (consumed, the field keeps its zero value), a value of the wanted kind
// (first byte want; '0' stands for any number), or an error — a kind
// mismatch, like encoding/json's UnmarshalTypeError, or bad syntax.
func (s *jsonScanner) scalar(f field, want byte) (null bool, err error) {
	c := s.peek()
	switch {
	case c == 'n':
		return true, s.literal()
	case c == '-' || isDigit(c):
		c = '0'
	case c == 't' || c == 'f':
		c = 't'
	case c == '"' || c == '{' || c == '[':
	case s.pos >= len(s.data):
		return false, s.errEOF()
	default:
		return false, s.errChar("looking for beginning of value")
	}
	if c != want {
		return false, s.errKind(f)
	}
	return false, nil
}

// intField decodes an int field: strconv.ParseInt semantics, so "-0"
// passes and a fraction or exponent is a type error.
func (s *jsonScanner) intField(f field, dst *int) error {
	if null, err := s.scalar(f, '0'); null || err != nil {
		return err
	}
	lit, err := s.number()
	if err != nil {
		return err
	}
	digits := lit
	if lit[0] == '-' {
		digits = lit[1:]
	}
	u, ok := parseUint(digits)
	neg := len(digits) < len(lit)
	switch {
	case !ok, !neg && u > math.MaxInt, neg && u > -math.MinInt:
		return s.errf("number %s does not fit %q", lit, fieldNames[f])
	case neg:
		*dst = int(-int64(u))
	default:
		*dst = int(u)
	}
	return nil
}

// uintField decodes a uint64 field: strconv.ParseUint semantics, so any
// sign is a type error.
func (s *jsonScanner) uintField(f field, dst *uint64) error {
	if null, err := s.scalar(f, '0'); null || err != nil {
		return err
	}
	lit, err := s.number()
	if err != nil {
		return err
	}
	u, ok := parseUint(lit)
	if !ok {
		return s.errf("number %s does not fit %q", lit, fieldNames[f])
	}
	*dst = u
	return nil
}

// parseUint parses an unsigned decimal integer, failing on any non-digit
// and on overflow.
func parseUint(b []byte) (uint64, bool) {
	var n uint64
	for _, c := range b {
		if !isDigit(c) || n > (1<<64-1)/10 {
			return 0, false
		}
		n2 := n*10 + uint64(c-'0')
		if n2 < n*10 {
			return 0, false
		}
		n = n2
	}
	return n, len(b) > 0
}

// floatField decodes a float64 field through strconv.ParseFloat over the
// literal's bytes, as encoding/json does, so the bits match; an
// out-of-range literal is an error.
func (s *jsonScanner) floatField(f field, dst *float64) error {
	if null, err := s.scalar(f, '0'); null || err != nil {
		return err
	}
	lit, err := s.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return s.errf("number %s does not fit %q", lit, fieldNames[f])
	}
	*dst = v
	return nil
}

// boolField decodes a bool field.
func (s *jsonScanner) boolField(f field, dst *bool) error {
	if null, err := s.scalar(f, 't'); null || err != nil {
		return err
	}
	*dst = s.data[s.pos] == 't'
	return s.literal()
}

// stringField decodes a string field through intern, so the result never
// aliases the datagram buffer.
func (s *jsonScanner) stringField(f field, dst *string) error {
	if null, err := s.scalar(f, '"'); null || err != nil {
		return err
	}
	b, err := s.str()
	if err != nil {
		return err
	}
	*dst = intern(b)
	return nil
}

// openObject positions the cursor at a struct-typed value nested depth
// containers deep: null leaves the struct as it is (ok = false), an
// object is entered, any other kind is an error.
func (s *jsonScanner) openObject(f field, depth int) (o object, ok bool, err error) {
	if null, err := s.scalar(f, '{'); null || err != nil {
		return object{}, false, err
	}
	if depth > maxDepth {
		return object{}, false, s.errf("exceeded max depth")
	}
	s.pos++
	return object{keyLo: int32(len(s.keys))}, true, nil
}

// members decodes a struct-typed value nested depth containers deep,
// handing each member's field to member with the cursor at its value.
func (s *jsonScanner) members(f field, depth int, member func(field) error) error {
	o, ok, err := s.openObject(f, depth)
	for ok && err == nil {
		var mf field
		if mf, ok, err = s.nextKey(&o); ok && err == nil {
			err = member(mf)
		}
	}
	return err
}

// decodeBody decodes a top-level body — null, or an object whose want
// member goes to member and whose other members are validated and
// dropped — and rejects trailing data.
func (s *jsonScanner) decodeBody(body []byte, want field, member func() error) error {
	s.reset(body)
	err := s.members(fUnknown, 1, func(f field) error {
		if f == want {
			return member()
		}
		return s.skip(1)
	})
	if err != nil {
		return err
	}
	return s.end()
}

// decodePush decodes a PUSH_DATA body into sc.rx.
func (sc *ParseScratch) decodePush(body []byte) error {
	sc.rx = sc.rx[:0]
	return sc.js.decodeBody(body, fRXPK, sc.decodeRXPKs)
}

// decodeRXPKs decodes the "rxpk" array, appending one zeroed element per
// entry to sc.rx before filling it, so nothing from an earlier datagram
// survives in the reused backing array.
//
//eflora:hotpath
func (sc *ParseScratch) decodeRXPKs() error {
	s := &sc.js
	if null, err := s.scalar(fRXPK, '['); null || err != nil {
		return err
	}
	s.pos++
	if s.peek() == ']' {
		s.pos++
		return nil
	}
	for {
		sc.rx = append(sc.rx, RXPK{})
		o, ok, err := s.openObject(fRXPK, 3)
		if ok {
			err = s.decodeRXPK(&o, &sc.rx[len(sc.rx)-1])
		}
		if err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return nil
		case 0:
			return s.errEOF()
		default:
			return s.errChar("after array element")
		}
	}
}

// decodeRXPK decodes the members of one open rxpk object into r, which
// the caller has zeroed.
//
//eflora:hotpath
func (s *jsonScanner) decodeRXPK(o *object, r *RXPK) error {
	for {
		f, ok, err := s.nextKey(o)
		if !ok || err != nil {
			return err
		}
		switch f {
		case fTmst:
			err = s.uintField(f, &r.Tmst)
		case fTime:
			err = s.stringField(f, &r.Time)
		case fFreq:
			err = s.floatField(f, &r.Freq)
		case fChan:
			err = s.intField(f, &r.Chan)
		case fRFCh:
			err = s.intField(f, &r.RFCh)
		case fStat:
			err = s.intField(f, &r.Stat)
		case fModu:
			err = s.stringField(f, &r.Modu)
		case fDatr:
			err = s.stringField(f, &r.Datr)
		case fCodr:
			err = s.stringField(f, &r.Codr)
		case fRSSI:
			err = s.floatField(f, &r.RSSI)
		case fLSNR:
			err = s.floatField(f, &r.LSNR)
		case fSize:
			err = s.intField(f, &r.Size)
		case fData:
			//eflora:alloc-ok the payload copy, the one allocation per uplink: Data must outlive the reused datagram buffer
			err = s.stringField(f, &r.Data)
		default:
			err = s.skip(3)
		}
		if err != nil {
			return err
		}
	}
}

// decodeTxAck decodes a TX_ACK body and returns txpk_ack.error.
func (sc *ParseScratch) decodeTxAck(body []byte) (ackErr string, err error) {
	s := &sc.js
	err = s.decodeBody(body, fTxpkAck, func() error {
		return s.members(fTxpkAck, 2, func(f field) error {
			if f == fError {
				return s.stringField(f, &ackErr)
			}
			return s.skip(2)
		})
	})
	return ackErr, err
}

// decodePullResp decodes a PULL_RESP body into tx.
func (sc *ParseScratch) decodePullResp(body []byte, tx *TXPK) error {
	s := &sc.js
	return s.decodeBody(body, fTXPK, func() error {
		return s.members(fTXPK, 2, func(f field) error {
			switch f {
			case fImme:
				return s.boolField(f, &tx.Imme)
			case fTmst:
				return s.uintField(f, &tx.Tmst)
			case fFreq:
				return s.floatField(f, &tx.Freq)
			case fRFCh:
				return s.intField(f, &tx.RFCh)
			case fPowe:
				return s.floatField(f, &tx.Powe)
			case fModu:
				return s.stringField(f, &tx.Modu)
			case fDatr:
				return s.stringField(f, &tx.Datr)
			case fCodr:
				return s.stringField(f, &tx.Codr)
			case fIPol:
				return s.boolField(f, &tx.IPol)
			case fSize:
				return s.intField(f, &tx.Size)
			case fData:
				return s.stringField(f, &tx.Data)
			}
			return s.skip(2)
		})
	})
}
