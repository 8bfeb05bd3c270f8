package ingest

import (
	"math"
	"reflect"
	"testing"
)

// FuzzSemtechPushData feeds arbitrary datagrams to the packet-forwarder
// codec. Any input may be rejected, but none may panic; inputs that decode
// must satisfy the protocol invariants, acknowledge with a token-echoing
// ACK, and survive an encode/decode round trip losslessly.
func FuzzSemtechPushData(f *testing.F) {
	eui := [8]byte{0xAA, 0x55, 1, 2, 3, 4, 5, 6}
	valid, err := EncodePushData(0xBEEF, eui, []RXPK{{
		Tmst: 123456, Freq: 868.1, Chan: 2, RFCh: 0, Stat: 1,
		Modu: "LORA", Datr: "SF7BW125", Codr: "4/7",
		RSSI: -102, LSNR: 5.5, Size: 4, Data: "3q2+7w==",
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(EncodePullData(0x1234, eui))
	f.Add([]byte{ProtocolVersion, 0, 0, PushData})                                                         // missing EUI
	f.Add([]byte{1, 0, 0, PushData, 0, 0, 0, 0, 0, 0, 0, 0})                                               // wrong version
	f.Add(append([]byte{ProtocolVersion, 9, 9, PushData, 0, 0, 0, 0, 0, 0, 0, 0}, []byte(`{"rxpk":[`)...)) // bad JSON
	f.Add(append([]byte{ProtocolVersion, 1, 0, TxAck, 1, 2, 3, 4, 5, 6, 7, 8}, []byte(`{"txpk_ack":{}}`)...))

	// One scratch shared across all inputs: the scratch decoder must agree
	// with the fresh-storage path no matter what state earlier datagrams
	// left behind.
	var scratch ParseScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePacket(data)
		ps, errS := DecodePacketInto(data, &scratch)
		if (err == nil) != (errS == nil) {
			t.Fatalf("scratch decode disagrees: fresh err=%v, scratch err=%v", err, errS)
		}
		if err != nil {
			if p != nil || ps != nil {
				t.Fatalf("non-nil packet alongside error %v", err)
			}
			return
		}
		if ps.Version != p.Version || ps.Token != p.Token || ps.Kind != p.Kind ||
			ps.EUI != p.EUI || ps.TxAckErr != p.TxAckErr || len(ps.RXPK) != len(p.RXPK) ||
			(len(p.RXPK) > 0 && !reflect.DeepEqual(ps.RXPK, p.RXPK)) {
			t.Fatalf("scratch decode diverges:\nfresh   %+v\nscratch %+v", p, ps)
		}
		if p.Version != ProtocolVersion {
			t.Fatalf("decoded version %d", p.Version)
		}
		switch p.Kind {
		case PushData, PullData, TxAck:
		default:
			t.Fatalf("decoded unexpected kind %#02x", p.Kind)
		}
		if ack, ok := p.Ack(); ok {
			if len(ack) != 4 || ack[0] != ProtocolVersion {
				t.Fatalf("malformed ack % x", ack)
			}
			if tok := uint16(ack[1]) | uint16(ack[2])<<8; tok != p.Token {
				t.Fatalf("ack token %#04x, want %#04x", tok, p.Token)
			}
		} else if p.Kind != TxAck {
			t.Fatalf("kind %#02x not acknowledged", p.Kind)
		}
		if p.Kind != PushData {
			return
		}
		// Re-encoding the decoded uplinks and decoding again must be
		// lossless: same token, gateway and rxpk fields.
		re, err := EncodePushData(p.Token, p.EUI, p.RXPK)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		p2, err := DecodePacket(re)
		if err != nil {
			t.Fatalf("decode of re-encoded PUSH_DATA: %v", err)
		}
		// nil and empty RXPK are the same protocol state (no uplinks):
		// omitempty drops an empty list on encode, so compare by content.
		if p2.Token != p.Token || p2.EUI != p.EUI || len(p2.RXPK) != len(p.RXPK) ||
			(len(p.RXPK) > 0 && !reflect.DeepEqual(p2.RXPK, p.RXPK)) {
			t.Fatalf("round trip changed packet:\n was %+v\n now %+v", p, p2)
		}
	})
}

// FuzzTXPK feeds arbitrary downstream datagrams to the PULL_RESP/TXPK
// codec. Any input may be rejected, but none may panic; a PULL_RESP that
// decodes must carry a TXPK and survive an encode/decode round trip
// losslessly, token included.
func FuzzTXPK(f *testing.F) {
	valid, err := EncodePullResp(0xBEEF, &TXPK{
		Tmst: 5_000_000, Freq: 869.525, RFCh: 0, Powe: 14,
		Modu: "LORA", Datr: "SF12BW125", Codr: "4/7", IPol: true,
		Size: 4, Data: "3q2+7w==",
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{ProtocolVersion, 0x34, 0x12, PushAck})
	f.Add([]byte{ProtocolVersion, 0x34, 0x12, PullAck})
	f.Add([]byte{ProtocolVersion, 0, 0, PullResp})                                   // missing body
	f.Add(append([]byte{ProtocolVersion, 9, 9, PullResp}, []byte(`{"txpk":{`)...))   // bad JSON
	f.Add(append([]byte{ProtocolVersion, 9, 9, PullResp}, []byte(`{"tXpk":{}}`)...)) // ambiguous key
	f.Add(append([]byte{ProtocolVersion, 0, 1, PullResp}, []byte(`{"txpk":{"imme":true,"freq":868.1,"rfch":0,"modu":"LORA","datr":"SF7BW125","codr":"4/5","size":0,"data":""}}`)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeDownstream(data)
		if err != nil {
			if p != nil {
				t.Fatalf("non-nil packet alongside error %v", err)
			}
			return
		}
		if p.Version != ProtocolVersion {
			t.Fatalf("decoded version %d", p.Version)
		}
		switch p.Kind {
		case PushAck, PullAck:
			return
		case PullResp:
		default:
			t.Fatalf("decoded unexpected kind %#02x", p.Kind)
		}
		if p.TXPK == nil {
			t.Fatal("PULL_RESP without TXPK")
		}
		re, err := EncodePullResp(p.Token, p.TXPK)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		p2, err := DecodeDownstream(re)
		if err != nil {
			t.Fatalf("decode of re-encoded PULL_RESP: %v", err)
		}
		if p2.Token != p.Token || p2.TXPK == nil || *p2.TXPK != *p.TXPK {
			t.Fatalf("round trip changed packet:\n was %+v\n now %+v", p, p2)
		}
	})
}

// FuzzParseDatr checks the datarate identifier parser never panics, that
// accepted identifiers carry a valid SF and a finite positive bandwidth,
// and that they round-trip through Datr for the canonical spelling.
func FuzzParseDatr(f *testing.F) {
	for _, s := range []string{"SF7BW125", "SF12BW500", "SF6BW125", "BW125", "SFxBW1", "SF9BW0", "",
		"SF7BWNaN", "SF7BWInf", "SF7BW1e308"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sf, bw, err := ParseDatr(s)
		if err != nil {
			return
		}
		if !sf.Valid() || !(bw > 0) || math.IsInf(bw, 0) {
			t.Fatalf("ParseDatr(%q) accepted sf=%d bw=%v", s, sf, bw)
		}
		if sf2, bw2, err := ParseDatr(Datr(sf, bw)); err != nil || sf2 != sf {
			t.Fatalf("canonical %q re-parse: sf=%d bw=%v err=%v", Datr(sf, bw), sf2, bw2, err)
		}
	})
}
