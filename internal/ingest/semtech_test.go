package ingest

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"testing"

	"eflora/internal/lora"
)

func TestPushDataRoundTrip(t *testing.T) {
	eui := [8]byte{0xAA, 1, 2, 3, 4, 5, 6, 0xBB}
	phy := []byte{0x40, 1, 0, 0, 0, 0, 1, 0, 1, 9, 9, 9, 9, 1, 2, 3, 4}
	rx := RXPK{
		Tmst: 123456, Freq: 868.1, Chan: 2, RFCh: 0, Stat: 1,
		Modu: "LORA", Datr: "SF9BW125", Codr: "4/7",
		RSSI: -101, LSNR: -3.5, Size: len(phy),
		Data: base64.StdEncoding.EncodeToString(phy),
	}
	buf, err := EncodePushData(0x1234, eui, []RXPK{rx})
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodePacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PushData || p.Token != 0x1234 || p.EUI != eui {
		t.Fatalf("decoded header = %+v", p)
	}
	if len(p.RXPK) != 1 {
		t.Fatalf("rxpk = %d, want 1", len(p.RXPK))
	}
	got, err := p.RXPK[0].Payload()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, phy) {
		t.Errorf("payload = %x, want %x", got, phy)
	}
	if p.RXPK[0].LSNR != -3.5 || p.RXPK[0].Datr != "SF9BW125" {
		t.Errorf("metadata = %+v", p.RXPK[0])
	}
	ack, ok := p.Ack()
	if !ok || !bytes.Equal(ack, []byte{2, 0x34, 0x12, PushAck}) {
		t.Errorf("push ack = %x", ack)
	}
}

func TestPullDataAck(t *testing.T) {
	eui := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	p, err := DecodePacket(EncodePullData(7, eui))
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PullData || p.EUI != eui {
		t.Fatalf("decoded = %+v", p)
	}
	ack, ok := p.Ack()
	if !ok || !bytes.Equal(ack, []byte{2, 7, 0, PullAck}) {
		t.Errorf("pull ack = %x", ack)
	}
}

func TestDecodePacketErrors(t *testing.T) {
	cases := [][]byte{
		{},
		{2, 0, 0}, // too short
		{1, 0, 0, PushData, 1, 2, 3, 4, 5, 6, 7, 8}, // wrong version
		{2, 0, 0, PullResp, 1, 2, 3, 4, 5, 6, 7, 8}, // downstream kind
		{2, 0, 0, PushData, 1, 2, 3},                // missing EUI
		append([]byte{2, 0, 0, PushData, 1, 2, 3, 4, 5, 6, 7, 8}, []byte("{not json")...),
	}
	for i, buf := range cases {
		if _, err := DecodePacket(buf); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestParseDatr(t *testing.T) {
	sf, bw, err := ParseDatr("SF7BW125")
	if err != nil || sf != lora.SF7 || bw != 125e3 {
		t.Errorf("SF7BW125 -> %v/%v/%v", sf, bw, err)
	}
	sf, bw, err = ParseDatr("SF12BW500")
	if err != nil || sf != lora.SF12 || bw != 500e3 {
		t.Errorf("SF12BW500 -> %v/%v/%v", sf, bw, err)
	}
	for _, bad := range []string{"", "SF7", "BW125", "SFxBW125", "SF99BW125", "SF7BWx",
		"SF7BWNaN", "SF7BWInf", "SF7BW+Inf", "SF7BW1e308", "SF7BW-125", "SF7BW1e20", "SF7BW0.5"} {
		if _, _, err := ParseDatr(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if got := Datr(lora.SF8, 125e3); got != "SF8BW125" {
		t.Errorf("Datr = %q", got)
	}
}

func TestPullRespRoundTrip(t *testing.T) {
	phy := []byte{0x60, 1, 0, 0, 0, 0, 1, 0, 0, 3, 0x52, 0x04, 0x00, 9, 9, 9, 9}
	tx := TXPK{
		Tmst: 5_000_000, Freq: 868.3, RFCh: 0, Powe: 14,
		Modu: "LORA", Datr: "SF9BW125", Codr: "4/7", IPol: true,
	}
	tx.SetPayload(phy)
	buf, err := EncodePullResp(0xCAFE, &tx)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodeDownstream(buf)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PullResp || p.Token != 0xCAFE || p.TXPK == nil {
		t.Fatalf("decoded = %+v", p)
	}
	if *p.TXPK != tx {
		t.Errorf("txpk round trip:\n was %+v\n now %+v", tx, *p.TXPK)
	}
	got, err := p.TXPK.Payload()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, phy) {
		t.Errorf("payload = %x, want %x", got, phy)
	}
	// PULL_RESP is not acknowledged with an ACK packet (TX_ACK is separate).
	if _, ok := p.Ack(); ok {
		t.Error("PULL_RESP produced an ack")
	}
}

func TestDecodeDownstreamAcks(t *testing.T) {
	for _, kind := range []byte{PushAck, PullAck} {
		p, err := DecodeDownstream([]byte{2, 0x21, 0x43, kind})
		if err != nil {
			t.Fatal(err)
		}
		if p.Kind != kind || p.Token != 0x4321 {
			t.Errorf("decoded = %+v", p)
		}
	}
	cases := [][]byte{
		{},
		{2, 0, 0},                     // too short
		{1, 0, 0, PullResp, '{', '}'}, // wrong version
		{2, 0, 0, PushData},           // upstream kind
		append([]byte{2, 0, 0, PullResp}, []byte("{oops")...),
	}
	for i, buf := range cases {
		if _, err := DecodeDownstream(buf); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestTxAckRoundTrip(t *testing.T) {
	eui := [8]byte{0xAA, 0x55, 1, 2, 3, 4, 5, 6}

	// Explicit error body.
	buf, err := EncodeTxAck(0x0102, eui, TxErrTooLate)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodePacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != TxAck || p.Token != 0x0102 || p.EUI != eui {
		t.Fatalf("decoded = %+v", p)
	}
	if p.TxAckErr != TxErrTooLate || p.TxAckOK() {
		t.Errorf("error = %q, ok = %v", p.TxAckErr, p.TxAckOK())
	}
	// TX_ACK is never acknowledged.
	if _, ok := p.Ack(); ok {
		t.Error("TX_ACK produced an ack")
	}

	// Explicit NONE and the legacy empty body both mean success.
	for _, errStr := range []string{TxErrNone, ""} {
		buf, err := EncodeTxAck(9, eui, errStr)
		if err != nil {
			t.Fatal(err)
		}
		p, err := DecodePacket(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !p.TxAckOK() {
			t.Errorf("errStr %q decoded not-ok: %+v", errStr, p)
		}
	}
}

func TestStrictKeysRejectsAmbiguity(t *testing.T) {
	eui := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	hdr := []byte{2, 0, 0, PushData}
	mk := func(body string) []byte {
		return append(append(append([]byte{}, hdr...), eui[:]...), body...)
	}
	rejected := []string{
		`{"rXpk":[]}`,                    // the kept fuzz crasher: case-variant of a decoded field
		`{"rxpk":[{"DATR":"SF7BW125"}]}`, // nested case variant
		`{"rxpk":[],"RXPK":[]}`,          // case-folded duplicate
		`{"rxpk":[{"tmst":1,"tmst":2}]}`, // exact duplicate
		`{"brd":1,"BRD":2}`,              // duplicate of an unmodeled key
		// Unicode simple folding, which encoding/json's field matching
		// uses: U+017F (long s) folds to s, U+212A (Kelvin sign) to k.
		`{"rxpk":[{"rssi":-100,"rſſi":-50}]}`, // would override rssi
		`{"rxpk":[{"tmſt":5}]}`,               // would decode as tmst
		`{"rxpK":[]}`,                         // Kelvin-sign rxpk
		`{"Key":1,"key":2}`,                   // fold duplicate of an unmodeled key
	}
	for _, body := range rejected {
		if _, err := DecodePacket(mk(body)); err == nil {
			t.Errorf("ambiguous body %s accepted", body)
		}
	}
	accepted := []string{
		`{"rxpk":[]}`,
		`{"rxpk":[{"tmst":1}],"stat":{"time":"x"}}`,
		`{"jver":1,"rxpk":[]}`, // unknown keys pass
	}
	for _, body := range accepted {
		if _, err := DecodePacket(mk(body)); err != nil {
			t.Errorf("legal body %s rejected: %v", body, err)
		}
	}
	// The same hardening guards the TX_ACK and PULL_RESP paths.
	ackBody := append(append([]byte{2, 0, 0, TxAck}, eui[:]...), []byte(`{"txpk_ack":{"Error":"NONE"}}`)...)
	if _, err := DecodePacket(ackBody); err == nil {
		t.Error("TX_ACK with case-variant key accepted")
	}
	if _, err := DecodeDownstream(append([]byte{2, 0, 0, PullResp}, []byte(`{"tXpk":{}}`)...)); err == nil {
		t.Error("PULL_RESP with case-variant key accepted")
	}
}

func TestTXPKPayloadSizeMismatch(t *testing.T) {
	tx := TXPK{Size: 3, Data: base64.StdEncoding.EncodeToString([]byte{1, 2})}
	if _, err := tx.Payload(); err == nil {
		t.Error("size mismatch accepted")
	}
	tx = TXPK{Data: "%%%"}
	if _, err := tx.Payload(); err == nil {
		t.Error("bad base64 accepted")
	}
}

func TestRXPKPayloadSizeMismatch(t *testing.T) {
	rx := RXPK{Size: 3, Data: base64.StdEncoding.EncodeToString([]byte{1, 2})}
	if _, err := rx.Payload(); err == nil {
		t.Error("size mismatch accepted")
	}
	rx = RXPK{Data: "!!!"}
	if _, err := rx.Payload(); err == nil {
		t.Error("bad base64 accepted")
	}
}

// TestDecodePacketIntoScratchReuse runs a mixed datagram sequence through
// one ParseScratch twice over and checks every decode against the
// fresh-storage DecodePacket oracle. The sequence is built to catch the
// two reuse hazards: a second PUSH_DATA whose rxpk objects omit fields
// the first one set (encoding/json would leave the stale values in the
// reused backing array), and kind switches that must not carry RXPK or
// TxAckErr across.
func TestDecodePacketIntoScratchReuse(t *testing.T) {
	eui := [8]byte{9, 8, 7, 6, 5, 4, 3, 2}
	rich, err := EncodePushData(1, eui, []RXPK{
		{Tmst: 11, Time: "2026-01-01T00:00:00Z", Freq: 868.1, Chan: 2, Stat: 1,
			Modu: "LORA", Datr: "SF7BW125", Codr: "4/7", RSSI: -80, LSNR: 3.5,
			Size: 4, Data: "3q2+7w=="},
		{Tmst: 12, Freq: 868.3, Stat: 1, Modu: "LORA", Datr: "SF9BW125",
			Codr: "4/5", RSSI: -95, Size: 4, Data: "3q2+7w=="},
	})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := EncodePushData(2, eui, []RXPK{
		{Freq: 868.5, Modu: "LORA", Datr: "SF12BW125"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ackErr, err := EncodeTxAck(3, eui, TxErrTooLate)
	if err != nil {
		t.Fatal(err)
	}
	seq := [][]byte{rich, sparse, EncodePullData(4, eui), ackErr, sparse, rich}
	var sc ParseScratch
	for round := 0; round < 2; round++ {
		for i, buf := range seq {
			want, err := DecodePacket(buf)
			if err != nil {
				t.Fatalf("round %d datagram %d: oracle: %v", round, i, err)
			}
			got, err := DecodePacketInto(buf, &sc)
			if err != nil {
				t.Fatalf("round %d datagram %d: scratch: %v", round, i, err)
			}
			if got.Version != want.Version || got.Token != want.Token ||
				got.Kind != want.Kind || got.EUI != want.EUI ||
				got.TxAckErr != want.TxAckErr {
				t.Fatalf("round %d datagram %d header:\n got %+v\nwant %+v", round, i, got, want)
			}
			if len(got.RXPK) != len(want.RXPK) {
				t.Fatalf("round %d datagram %d: %d rxpk, want %d", round, i, len(got.RXPK), len(want.RXPK))
			}
			for j := range want.RXPK {
				if got.RXPK[j] != want.RXPK[j] {
					t.Errorf("round %d datagram %d rxpk %d:\n got %+v\nwant %+v",
						round, i, j, got.RXPK[j], want.RXPK[j])
				}
			}
		}
	}
}

// TestDecodePacketIntoRejectsLikeDecodePacket pins the two entry points
// to the same acceptance set on malformed input, warm scratch included.
func TestDecodePacketIntoRejectsLikeDecodePacket(t *testing.T) {
	eui := [8]byte{1, 1, 2, 2, 3, 3, 4, 4}
	good, err := EncodePushData(9, eui, []RXPK{{Freq: 868.1, Modu: "LORA", Datr: "SF7BW125"}})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		{},
		{2, 0, 0},
		{1, 0, 0, PushData, 0, 0, 0, 0, 0, 0, 0, 0},
		{2, 0, 0, PullResp},
		append([]byte{2, 0, 0, PushData, 0, 0, 0, 0, 0, 0, 0, 0}, `{"rxpk":[`...),
		append([]byte{2, 0, 0, PushData, 0, 0, 0, 0, 0, 0, 0, 0}, `{"rXpk":[]}`...),
	}
	var sc ParseScratch
	if _, err := DecodePacketInto(good, &sc); err != nil { // warm the scratch
		t.Fatal(err)
	}
	for i, buf := range bad {
		if p, err := DecodePacketInto(buf, &sc); err == nil || p != nil {
			t.Errorf("bad datagram %d: scratch decode returned %+v, %v", i, p, err)
		}
		if p, err := DecodePacket(buf); err == nil || p != nil {
			t.Errorf("bad datagram %d: DecodePacket returned %+v, %v", i, p, err)
		}
	}
	// The scratch still decodes cleanly after every rejection.
	if _, err := DecodePacketInto(good, &sc); err != nil {
		t.Fatalf("scratch poisoned by rejected datagrams: %v", err)
	}
}

// servePushData encodes n uplinks shaped like the perfbench serve
// workload's: full-precision RSSI/SNR, protocol datarate and coding rate,
// a 20-byte PHY payload.
func servePushData(tb testing.TB, n int) []byte {
	tb.Helper()
	rxpks := make([]RXPK, n)
	for i := range rxpks {
		rxpks[i] = RXPK{
			Tmst: 1_234_567_890 + uint64(1000*i), Freq: 868.3, Chan: i % 3, Stat: 1,
			Modu: "LORA", Datr: "SF9BW125", Codr: "4/7",
			RSSI: -117.83926478357262, LSNR: -9.612345678901234,
			Size: 20, Data: "QAEAAAGAAQABGhscHR4fICEiIyQ=",
		}
	}
	buf, err := EncodePushData(7, [8]byte{0xAA, 0x55, 1, 2, 3, 4, 5, 6}, rxpks)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// TestDecodePacketIntoAllocBudget pins the warm decode's allocations: one
// per uplink (its Data string; modu, datr and codr are interned) and none
// for PULL_DATA or TX_ACK.
func TestDecodePacketIntoAllocBudget(t *testing.T) {
	eui := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	cases := []struct {
		name string
		buf  []byte
		max  float64
	}{
		{"push-1", servePushData(t, 1), 1},
		{"push-8", servePushData(t, 8), 8},
		{"pull", EncodePullData(1, eui), 0},
	}
	for _, e := range []string{TxErrNone, TxErrTooLate, TxErrCollisionPacket, ""} {
		buf, err := EncodeTxAck(2, eui, e)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			name string
			buf  []byte
			max  float64
		}{"txack-" + e, buf, 0})
	}
	var sc ParseScratch
	for _, c := range cases {
		if _, err := DecodePacketInto(c.buf, &sc); err != nil { // warm
			t.Fatalf("%s: %v", c.name, err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := DecodePacketInto(c.buf, &sc); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s: %.1f allocs per warm decode, budget %.0f", c.name, got, c.max)
		}
	}
}

// TestDecodePacketIntoRetention keeps the strings of one decode and
// checks they survive the scratch decoding another datagram written over
// the same receive buffer, as eflora-nsd's UDP loop reuses it. Values
// cover the interned, copied and unescaped paths.
func TestDecodePacketIntoRetention(t *testing.T) {
	eui := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	hdr := append([]byte{ProtocolVersion, 0, 0, PushData}, eui[:]...)
	first := append(append([]byte{}, hdr...),
		`{"rxpk":[{"modu":"LORA","datr":"SF9BW125","codr":"4/7","data":"QUJD"},`+
			`{"modu":"L\u004fRA-X","datr":"SF7BW999","codr":"5/9","data":"R\u0045Y=","time":"t1"}]}`...)
	second := append(append([]byte{}, hdr...),
		`{"rxpk":[{"modu":"ZZZZ","datr":"SF0BW000","codr":"0/0","data":"ZZZZ"},`+
			`{"modu":"ZZZZZZZZ","datr":"ZZZZZZZZ","codr":"Z/Z","data":"ZZZZ","time":"zz"}]}`...)
	buf := make([]byte, 2048)
	var sc ParseScratch
	p, err := DecodePacketInto(buf[:copy(buf, first)], &sc)
	if err != nil {
		t.Fatal(err)
	}
	kept := append([]RXPK(nil), p.RXPK...)
	want := []RXPK{
		{Modu: "LORA", Datr: "SF9BW125", Codr: "4/7", Data: "QUJD"},
		{Modu: "LORA-X", Datr: "SF7BW999", Codr: "5/9", Data: "REY=", Time: "t1"},
	}
	for i := range buf {
		buf[i] = 'Z'
	}
	if _, err := DecodePacketInto(buf[:copy(buf, second)], &sc); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if kept[i] != want[i] {
			t.Errorf("rxpk %d changed after the next decode:\n got %+v\nwant %+v", i, kept[i], want[i])
		}
	}
}

// BenchmarkDecodePushData times the fresh-storage and scratch-reusing
// decode paths, and the encoding/json oracle, on two datagram shapes: one uplink per datagram as the
// perfbench serve workload and a single-gateway replay send it (full
// precision RSSI/SNR, a 20-byte PHY payload), and a busy gateway's
// 8-uplink batch.
func BenchmarkDecodePushData(b *testing.B) {
	for _, n := range []int{1, 8} {
		buf := servePushData(b, n)
		b.Run(fmt.Sprintf("uplinks=%d/fresh", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodePacket(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("uplinks=%d/scratch", n), func(b *testing.B) {
			var sc ParseScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodePacketInto(buf, &sc); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The two-pass encoding/json path the scanner replaced (strict-key
		// token walk, then Unmarshal), kept as the test oracle.
		b.Run(fmt.Sprintf("uplinks=%d/json-oracle", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := oracleDecodePacket(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
