package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// The encoding/json decode path the single-pass scanner replaced, kept as
// its differential oracle: a strict-key token walk over the body, then
// json.Unmarshal into the packet structs. The walk folds keys with
// strings.EqualFold — encoding/json's own matching rule is simple Unicode
// folding, so ASCII lower-casing alone let {"tmſt":5} (U+017F) through.

// oracleProtocolKeys are the JSON keys the packet path decodes.
var oracleProtocolKeys = []string{
	"rxpk", "txpk", "stat", "txpk_ack", "error", "tmst", "time", "freq",
	"chan", "rfch", "modu", "datr", "codr", "rssi", "lsnr", "size",
	"data", "imme", "powe", "ipol",
}

// oracleStrictKeys rejects, in every object of the body, two keys equal
// under strings.EqualFold and any key that fold-matches a protocol key
// without spelling it exactly.
func oracleStrictKeys(data []byte) error {
	type frame struct {
		obj, expectKey bool
		keys           []string
	}
	var frames []*frame
	endValue := func() {
		if n := len(frames); n > 0 && frames[n-1].obj {
			frames[n-1].expectKey = true
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case json.Delim:
			switch t {
			case '{':
				frames = append(frames, &frame{obj: true, expectKey: true})
			case '[':
				frames = append(frames, &frame{})
			default:
				frames = frames[:len(frames)-1]
				endValue()
			}
		case string:
			if n := len(frames); n > 0 && frames[n-1].obj && frames[n-1].expectKey {
				f := frames[n-1]
				for _, k := range f.keys {
					if strings.EqualFold(k, t) {
						return fmt.Errorf("ambiguous JSON keys %q and %q", k, t)
					}
				}
				f.keys = append(f.keys, t)
				for _, canon := range oracleProtocolKeys {
					if t != canon && strings.EqualFold(t, canon) {
						return fmt.Errorf("JSON key %q mismatches protocol field %q", t, canon)
					}
				}
				f.expectKey = false
				continue
			}
			endValue()
		default:
			endValue()
		}
	}
}

func oracleUnmarshal(data []byte, v any) error {
	if err := oracleStrictKeys(data); err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// oraclePush is the PUSH_DATA body as the encoding/json path decoded it.
type oraclePush struct {
	RXPK []RXPK          `json:"rxpk,omitempty"`
	Stat json.RawMessage `json:"stat,omitempty"`
}

// oracleDecodePacket is DecodePacket on the encoding/json path.
func oracleDecodePacket(buf []byte) (*Packet, error) {
	if len(buf) < headerLen+8 || buf[0] != ProtocolVersion {
		return nil, fmt.Errorf("bad header")
	}
	p := &Packet{Version: buf[0], Token: uint16(buf[1]) | uint16(buf[2])<<8, Kind: buf[3]}
	copy(p.EUI[:], buf[headerLen:headerLen+8])
	body := buf[headerLen+8:]
	switch p.Kind {
	case PushData:
		var push oraclePush
		if err := oracleUnmarshal(body, &push); err != nil {
			return nil, err
		}
		p.RXPK = push.RXPK
	case PullData:
	case TxAck:
		if len(bytes.TrimSpace(body)) > 0 {
			var ack txAckPayload
			if err := oracleUnmarshal(body, &ack); err != nil {
				return nil, err
			}
			p.TxAckErr = ack.Ack.Error
		}
	default:
		return nil, fmt.Errorf("bad kind")
	}
	return p, nil
}

// oracleDecodePullResp decodes a PULL_RESP datagram's TXPK on the
// encoding/json path.
func oracleDecodePullResp(buf []byte) (*TXPK, error) {
	var body pullRespPayload
	if err := oracleUnmarshal(buf[headerLen:], &body); err != nil {
		return nil, err
	}
	return &body.TXPK, nil
}

// sameRXPK compares every field, floats by bits.
func sameRXPK(a, b *RXPK) bool {
	return a.Tmst == b.Tmst && a.Time == b.Time &&
		math.Float64bits(a.Freq) == math.Float64bits(b.Freq) &&
		a.Chan == b.Chan && a.RFCh == b.RFCh && a.Stat == b.Stat &&
		a.Modu == b.Modu && a.Datr == b.Datr && a.Codr == b.Codr &&
		math.Float64bits(a.RSSI) == math.Float64bits(b.RSSI) &&
		math.Float64bits(a.LSNR) == math.Float64bits(b.LSNR) &&
		a.Size == b.Size && a.Data == b.Data
}

// sameTXPK compares every field, floats by bits.
func sameTXPK(a, b *TXPK) bool {
	return a.Imme == b.Imme && a.Tmst == b.Tmst &&
		math.Float64bits(a.Freq) == math.Float64bits(b.Freq) &&
		a.RFCh == b.RFCh && math.Float64bits(a.Powe) == math.Float64bits(b.Powe) &&
		a.Modu == b.Modu && a.Datr == b.Datr && a.Codr == b.Codr &&
		a.IPol == b.IPol && a.Size == b.Size && a.Data == b.Data
}

// oracleSeedBodies are JSON bodies aimed at the places a hand-rolled
// decoder drifts from encoding/json.
var oracleSeedBodies = []string{
	// Escapes, in values and keys.
	`{"rxpk":[{"datr":"SF7\u0042W125","data":"\/\"\\\b\f\n\r\t","codr":"4\/5"}]}`,
	`{"\u0072xpk":[{"tmst":1}]}`,
	`{"rxpk":[{"\u0074mst":1,"tmst":2}]}`,
	// Surrogates: a pair, lone halves, a high half before a non-surrogate
	// escape, two highs before a low, a truncated escape.
	`{"rxpk":[{"time":"\ud83d\ude00"}]}`,
	`{"rxpk":[{"time":"\ud800x","modu":"\udc00"}]}`,
	`{"rxpk":[{"time":"\ud800\u0041","codr":"\ud800\ud800\udc00"}]}`,
	`{"rxpk":[{"time":"\ud800\u00"}]}`,
	`{"rxpk":[{"time":"\uD83D\uDE00\uDBFF\uDFFF"}]}`,
	// Invalid UTF-8 in values and keys, UTF-8-encoded surrogates, raw DEL.
	"{\"rxpk\":[{\"modu\":\"\xff\xfeLORA\",\"data\":\"\xed\xa0\x80\"}]}",
	"{\"\xffrxpk\":1,\"rxpk\":[{\"time\":\"\xc3\x28\x7f\"}]}",
	"{\"rxpk\":[{\"time\":\"\xef\xbf\xbd\xf0\x9f\x98\"}]}",
	// Numbers at the type boundaries.
	`{"rxpk":[{"rssi":-0,"chan":-0,"lsnr":-0.0,"freq":0e0}]}`,
	`{"rxpk":[{"tmst":-0}]}`,
	`{"rxpk":[{"freq":1e400}]}`,
	`{"stat":{"x":1e400},"y":[-1e309]}`,
	`{"rxpk":[{"x":[1e308,-1.7976931348623157e308]}]}`,
	`{"rxpk":[{"freq":1e-400,"rssi":-4.9e-324}]}`,
	`{"rxpk":[{"chan":1.0}]}`,
	`{"rxpk":[{"size":1e2}]}`,
	`{"rxpk":[{"tmst":-1}]}`,
	`{"rxpk":[{"chan":9223372036854775807,"rfch":-9223372036854775808}]}`,
	`{"rxpk":[{"chan":9223372036854775808}]}`,
	`{"rxpk":[{"stat":-9223372036854775809}]}`,
	`{"rxpk":[{"tmst":18446744073709551615}]}`,
	`{"rxpk":[{"tmst":18446744073709551616}]}`,
	`{"rxpk":[{"freq":868.1000000000000000000000000000000000001,"rssi":-117.83926478357262}]}`,
	`{"rxpk":[{"chan":01}]}`,
	`{"rxpk":[{"freq":1.}]}`,
	`{"rxpk":[{"freq":-}]}`,
	`{"rxpk":[{"freq":.5}]}`,
	`{"rxpk":[{"freq":+1}]}`,
	`{"rxpk":[{"freq":1e}]}`,
	// null in every field and at every level.
	`{"rxpk":[{"tmst":null,"time":null,"freq":null,"chan":null,"rfch":null,"stat":null,"modu":null,"datr":null,"codr":null,"rssi":null,"lsnr":null,"size":null,"data":null}]}`,
	`{"rxpk":null}`,
	`{"rxpk":[null,{"tmst":3},null]}`,
	`null`,
	`{"rxpk":[],"stat":null}`,
	// Kind mismatches.
	`{"rxpk":{}}`,
	`{"rxpk":[1]}`,
	`{"rxpk":["x"]}`,
	`{"rxpk":[{"datr":7}]}`,
	`{"rxpk":[{"chan":"1"}]}`,
	`{"rxpk":[{"tmst":true}]}`,
	`{"rxpk":[{"data":["QQ=="]}]}`,
	`{"rxpk":[{"freq":{}}]}`,
	`[]`,
	`"rxpk"`,
	`1`,
	`true`,
	// Nested unknown values and stat, with their own key rules.
	`{"x":{"y":[1,{"z":"w"},[true,false,null]]},"rxpk":[{"v":{"a":[{}]},"tmst":4}],"stat":{"rxnb":2,"time":"t"}}`,
	`{"stat":{"a":1,"A":2}}`,
	`{"stat":{"Time":"t"}}`,
	`{"stat":[{"x":1},{"x":2}]}`,
	`{"rxpk":[{"imme":true,"txpk":{},"error":"x"}],"tmst":1}`,
	// Key ambiguity, ASCII and Unicode folds.
	`{"rXpk":[]}`,
	`{"rxpk":[{"rssi":-100,"rſſi":-50}]}`,
	`{"rxpk":[{"tmſt":5}]}`,
	`{"rxpK":[]}`,
	`{"rxp\u212a":[]}`,
	`{"K":1,"k":2}`,
	`{"ſ":1,"S":2}`,
	`{"rxpk":[],"RXPK":[]}`,
	// Whitespace and trailing data.
	" \t\n\r{ \"rxpk\" : [ { \"tmst\" : 1 , \"datr\" : \"SF9BW125\" } ] } \n",
	`{"rxpk":[]}x`,
	`{"rxpk":[]} {}`,
	`{"rxpk":[],}`,
	`{"rxpk":[{"tmst":1},]}`,
	`{"rxpk":[{"tmst":1,}]}`,
	`{"rxpk":[{"tmst" 1}]}`,
	`{"rxpk":[{"tmst":1}`,
	`{"rxpk":[{"data":"abc`,
	`{"rxpk":[{"data":"a\x"}]}`,
	"{\"rxpk\":[{\"data\":\"a\tb\"}]}",
	"{\"rxpk\":[]}\x00",
	`{"rxpk":[]}  `,
	``,
	` `,
	`nul`,
	`{"rxpk":tru}`,
	`{"stat":falsey}`,
	// TX_ACK and PULL_RESP bodies (tried under every kind).
	`{"txpk_ack":{"error":"TOO_LATE"}}`,
	`{"txpk_ack":{"error":"WEIRD","extra":[1]}}`,
	`{"txpk_ack":{"Error":"x"}}`,
	`{"txpk_ack":null}`,
	`{"txpk_ack":{"error":null}}`,
	`{"txpk_ack":{"error":5}}`,
	`{"txpk_ack":[]}`,
	"\xc2\xa0",
	"\v",
	`{"txpk":{"imme":true,"tmst":5,"freq":869.525,"rfch":0,"powe":14,"modu":"LORA","datr":"SF12BW125","codr":"4/5","ipol":true,"size":2,"data":"AQI="}}`,
	`{"txpk":{"imme":1}}`,
	`{"txpk":{"powe":"14"}}`,
	`{"txpk":{"ipol":null,"imme":false}}`,
	`{"txpk":null}`,
	`{"txpk":{"IPol":true}}`,
}

// oracleSeedDatagrams wraps every seed body in each packet kind.
func oracleSeedDatagrams() [][]byte {
	eui := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	var out [][]byte
	for _, body := range oracleSeedBodies {
		for _, kind := range []byte{PushData, TxAck} {
			out = append(out, append(append([]byte{ProtocolVersion, 1, 2, kind}, eui...), body...))
		}
		out = append(out, append([]byte{ProtocolVersion, 1, 2, PullResp}, body...))
	}
	return out
}

// FuzzDecodeVsJSONOracle pins the single-pass scanner to the
// encoding/json path it replaced: both must accept exactly the same
// datagrams and decode them to the same values, floats compared by bits.
// One warm scratch serves every input, so state left behind by earlier
// datagrams (accepted or rejected) cannot change a later decode.
func FuzzDecodeVsJSONOracle(f *testing.F) {
	for _, d := range oracleSeedDatagrams() {
		f.Add(d)
	}
	var sc ParseScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data, &sc)
	})
}

// TestDecodeDepthLimitMatchesOracle pins encoding/json's nesting limit
// (10000 open containers, not 10001) on both sides of the boundary, in
// dropped values and inside an rxpk element. The bodies are too large for
// the fuzz seed corpus: the fuzzer would spend its time minimizing them.
func TestDecodeDepthLimitMatchesOracle(t *testing.T) {
	var sc ParseScratch
	for _, d := range []int{9999, 10000} {
		bodies := []string{
			`{"stat":` + strings.Repeat("[", d) + strings.Repeat("]", d) + `}`,
			`{"rxpk":[{"x":` + strings.Repeat(`{"a":`, d-2) + `1` + strings.Repeat("}", d-2) + `}]}`,
		}
		for _, body := range bodies {
			for _, kind := range []byte{PushData, TxAck} {
				checkAgainstOracle(t, append([]byte{ProtocolVersion, 0, 0, kind, 1, 2, 3, 4, 5, 6, 7, 8}, body...), &sc)
			}
			checkAgainstOracle(t, append([]byte{ProtocolVersion, 0, 0, PullResp}, body...), &sc)
		}
		if _, err := DecodePacketInto(append([]byte{ProtocolVersion, 0, 0, PushData, 1, 2, 3, 4, 5, 6, 7, 8}, bodies[0]...), &sc); (err == nil) != (d == 9999) {
			t.Errorf("depth %d: err = %v", d+1, err)
		}
	}
}

func checkAgainstOracle(t *testing.T, data []byte, sc *ParseScratch) {
	t.Helper()
	if len(data) >= headerLen && data[3] == PullResp {
		want, werr := oracleDecodePullResp(data)
		p, err := DecodeDownstream(data)
		if data[0] != ProtocolVersion {
			return // header errors are not the scanner's
		}
		if (err == nil) != (werr == nil) {
			t.Fatalf("PULL_RESP %q: scanner err=%v, oracle err=%v", data[headerLen:], err, werr)
		}
		if err == nil && !sameTXPK(p.TXPK, want) {
			t.Fatalf("PULL_RESP %q:\nscanner %+v\noracle  %+v", data[headerLen:], *p.TXPK, *want)
		}
		return
	}
	want, werr := oracleDecodePacket(data)
	got, err := DecodePacketInto(data, sc)
	if (err == nil) != (werr == nil) {
		t.Fatalf("datagram %q: scanner err=%v, oracle err=%v", data, err, werr)
	}
	if err != nil {
		return
	}
	if got.Version != want.Version || got.Token != want.Token || got.Kind != want.Kind ||
		got.EUI != want.EUI || got.TxAckErr != want.TxAckErr || len(got.RXPK) != len(want.RXPK) {
		t.Fatalf("datagram %q:\nscanner %+v\noracle  %+v", data, got, want)
	}
	for i := range want.RXPK {
		if !sameRXPK(&got.RXPK[i], &want.RXPK[i]) {
			t.Fatalf("datagram %q rxpk %d:\nscanner %+v\noracle  %+v", data, i, got.RXPK[i], want.RXPK[i])
		}
	}
}
