// Package ingest is the online half of the network server: it speaks the
// Semtech UDP packet-forwarder protocol to real (or replayed) gateways,
// fans decoded uplinks across a DevAddr-sharded pool of netserver.Server
// instances, flushes dedup windows on the clock, maintains rolling
// per-device link statistics, and periodically hands drifting devices to
// alloc.Incremental for online re-allocation.
package ingest

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"eflora/internal/lora"
)

// Semtech packet-forwarder protocol (v2) packet identifiers.
const (
	PushData byte = 0x00 // gateway -> server, JSON rxpk/stat payload
	PushAck  byte = 0x01 // server -> gateway
	PullData byte = 0x02 // gateway -> server, keepalive / downlink route
	PullResp byte = 0x03 // server -> gateway, txpk payload
	PullAck  byte = 0x04 // server -> gateway
	TxAck    byte = 0x05 // gateway -> server, downlink result
)

// ProtocolVersion is the packet-forwarder protocol version this codec
// implements.
const ProtocolVersion = 2

// headerLen is version (1) + token (2) + identifier (1); data packets add
// the 8-byte gateway EUI.
const headerLen = 4

// RXPK is one received uplink in a PUSH_DATA JSON payload, mirroring the
// packet forwarder's field names.
type RXPK struct {
	// Tmst is the gateway's internal microsecond counter at RX.
	Tmst uint64 `json:"tmst"`
	// Time is the optional ISO 8601 UTC RX time.
	Time string `json:"time,omitempty"`
	// Freq is the center frequency in MHz.
	Freq float64 `json:"freq"`
	// Chan and RFCh are the concentrator IF and RF chain indices.
	Chan int `json:"chan"`
	RFCh int `json:"rfch"`
	// Stat is the CRC status: 1 = OK, -1 = fail, 0 = no CRC.
	Stat int `json:"stat"`
	// Modu is "LORA" (or "FSK", which this server ignores).
	Modu string `json:"modu"`
	// Datr is the LoRa datarate identifier, e.g. "SF7BW125".
	Datr string `json:"datr"`
	// Codr is the coding rate, e.g. "4/7".
	Codr string `json:"codr"`
	// RSSI is the packet RSSI in dBm, LSNR the packet SNR in dB.
	RSSI float64 `json:"rssi"`
	LSNR float64 `json:"lsnr"`
	// Size is the payload length in bytes; Data its base64 encoding.
	Size int    `json:"size"`
	Data string `json:"data"`
}

// Payload decodes the base64 PHY payload.
func (r *RXPK) Payload() ([]byte, error) {
	b, err := base64.StdEncoding.DecodeString(r.Data)
	if err != nil {
		return nil, fmt.Errorf("ingest: rxpk data: %w", err)
	}
	if r.Size != 0 && r.Size != len(b) {
		return nil, fmt.Errorf("ingest: rxpk size %d != payload %d", r.Size, len(b))
	}
	return b, nil
}

// TXPK is one downlink transmission request in a PULL_RESP JSON payload,
// mirroring the packet forwarder's field names.
type TXPK struct {
	// Imme requests immediate transmission, ignoring Tmst.
	Imme bool `json:"imme,omitempty"`
	// Tmst is the gateway's internal microsecond counter value at which
	// the transmission must start (Class-A window timing).
	Tmst uint64 `json:"tmst,omitempty"`
	// Freq is the TX center frequency in MHz.
	Freq float64 `json:"freq"`
	// RFCh is the concentrator RF chain used for TX.
	RFCh int `json:"rfch"`
	// Powe is the TX output power in dBm.
	Powe float64 `json:"powe,omitempty"`
	// Modu is "LORA" (FSK downlinks are not issued by this server).
	Modu string `json:"modu"`
	// Datr is the LoRa datarate identifier, e.g. "SF12BW125".
	Datr string `json:"datr"`
	// Codr is the coding rate, e.g. "4/7".
	Codr string `json:"codr"`
	// IPol requests inverted polarity (standard for LoRaWAN downlinks so
	// gateways do not lock onto each other's transmissions).
	IPol bool `json:"ipol,omitempty"`
	// Size is the payload length in bytes; Data its base64 encoding.
	Size int    `json:"size"`
	Data string `json:"data"`
}

// Payload decodes the base64 PHY payload.
func (t *TXPK) Payload() ([]byte, error) {
	b, err := base64.StdEncoding.DecodeString(t.Data)
	if err != nil {
		return nil, fmt.Errorf("ingest: txpk data: %w", err)
	}
	if t.Size != 0 && t.Size != len(b) {
		return nil, fmt.Errorf("ingest: txpk size %d != payload %d", t.Size, len(b))
	}
	return b, nil
}

// SetPayload stores the PHY payload (base64 + size).
func (t *TXPK) SetPayload(b []byte) {
	t.Size = len(b)
	t.Data = base64.StdEncoding.EncodeToString(b)
}

// TX_ACK error values (packet-forwarder PROTOCOL.TXT): the downlink's
// fate as judged by the gateway's just-in-time TX queue.
const (
	TxErrNone            = "NONE"
	TxErrTooLate         = "TOO_LATE"
	TxErrTooEarly        = "TOO_EARLY"
	TxErrCollisionPacket = "COLLISION_PACKET"
	TxErrCollisionBeacon = "COLLISION_BEACON"
	TxErrTxFreq          = "TX_FREQ"
	TxErrTxPower         = "TX_POWER"
	TxErrGPSUnlocked     = "GPS_UNLOCKED"
)

// ParseDatr splits a "SF7BW125"-style datarate identifier into spreading
// factor and bandwidth (Hz).
func ParseDatr(datr string) (lora.SF, float64, error) {
	rest, ok := strings.CutPrefix(datr, "SF")
	if !ok {
		return 0, 0, fmt.Errorf("ingest: datr %q: missing SF prefix", datr)
	}
	sfStr, bwStr, ok := strings.Cut(rest, "BW")
	if !ok {
		return 0, 0, fmt.Errorf("ingest: datr %q: missing BW", datr)
	}
	sf, err := strconv.Atoi(sfStr)
	if err != nil || !lora.SF(sf).Valid() {
		return 0, 0, fmt.Errorf("ingest: datr %q: bad SF %q", datr, sfStr)
	}
	// The protocol spells bandwidths in whole kHz (Datr truncates), so an
	// accepted bandwidth must be at least 1 kHz to render back. No radio
	// channel is wider than 1 GHz; the bounds also reject NaN, Inf and
	// overflowing spellings.
	bwKHz, err := strconv.ParseFloat(bwStr, 64)
	bw := bwKHz * 1e3
	if err != nil || !(bw >= 1e3 && bw <= 1e9) {
		return 0, 0, fmt.Errorf("ingest: datr %q: bad BW %q", datr, bwStr)
	}
	return lora.SF(sf), bw, nil
}

// Datr renders a spreading factor and bandwidth as a datarate identifier.
func Datr(sf lora.SF, bwHz float64) string {
	return fmt.Sprintf("SF%dBW%d", int(sf), int(bwHz/1e3))
}

// pushPayload is the JSON body of a PUSH_DATA packet, for encoding.
type pushPayload struct {
	RXPK []RXPK `json:"rxpk,omitempty"`
}

// pullRespPayload is the JSON body of a PULL_RESP packet.
type pullRespPayload struct {
	TXPK TXPK `json:"txpk"`
}

// txAckPayload is the JSON body of a TX_ACK packet.
type txAckPayload struct {
	Ack struct {
		Error string `json:"error"`
	} `json:"txpk_ack"`
}

// ParseScratch holds the decode buffers one ingress loop reuses across
// datagrams: the packet value, the RXPK backing array and the JSON
// scanner's key and container stacks. The Packet returned by
// DecodePacketInto aliases the scratch and is valid until the next decode
// with the same scratch; the strings in it never alias the datagram. A
// zero ParseScratch is ready to use; a scratch serves one decode at a
// time.
type ParseScratch struct {
	pkt Packet
	rx  []RXPK
	js  jsonScanner
}

// Packet is a decoded packet-forwarder datagram.
type Packet struct {
	Version byte
	Token   uint16
	Kind    byte
	// EUI is the gateway's identifier (PUSH_DATA, PULL_DATA, TX_ACK).
	EUI [8]byte
	// RXPK holds the uplinks of a PUSH_DATA packet.
	RXPK []RXPK
	// TXPK holds the downlink of a PULL_RESP packet (DecodeDownstream).
	TXPK *TXPK
	// TxAckErr is the TX_ACK error value; "" when the datagram carried no
	// JSON body (old forwarders acknowledge success with an empty body).
	TxAckErr string
}

// TxAckOK reports whether a TX_ACK signals a successfully queued
// downlink (no body, or an explicit NONE).
func (p *Packet) TxAckOK() bool { return p.TxAckErr == "" || p.TxAckErr == TxErrNone }

// DecodePacket parses an upstream datagram (PUSH_DATA, PULL_DATA or
// TX_ACK — the kinds a gateway sends) into freshly allocated storage.
// Loops decoding at line rate should hold a ParseScratch and call
// DecodePacketInto instead.
func DecodePacket(buf []byte) (*Packet, error) {
	var sc ParseScratch
	p, err := DecodePacketInto(buf, &sc)
	if err != nil {
		return nil, err
	}
	out := *p
	return &out, nil
}

// DecodePacketInto parses an upstream datagram like DecodePacket, reusing
// the scratch's buffers. The returned Packet and its RXPK slice alias sc
// and are valid until the next decode with the same scratch; callers that
// keep frames across datagrams must copy them out first.
func DecodePacketInto(buf []byte, sc *ParseScratch) (*Packet, error) {
	if len(buf) < headerLen {
		return nil, fmt.Errorf("ingest: datagram too short (%d bytes)", len(buf))
	}
	p := &sc.pkt
	*p = Packet{
		Version: buf[0],
		Token:   uint16(buf[1]) | uint16(buf[2])<<8,
		Kind:    buf[3],
	}
	if p.Version != ProtocolVersion {
		return nil, fmt.Errorf("ingest: protocol version %d (want %d)", p.Version, ProtocolVersion)
	}
	switch p.Kind {
	case PushData, PullData, TxAck:
	default:
		return nil, fmt.Errorf("ingest: unexpected upstream packet kind %#02x", p.Kind)
	}
	if len(buf) < headerLen+8 {
		return nil, fmt.Errorf("ingest: %#02x datagram missing gateway EUI", p.Kind)
	}
	copy(p.EUI[:], buf[headerLen:headerLen+8])
	switch p.Kind {
	case PushData:
		if err := sc.decodePush(buf[headerLen+8:]); err != nil {
			return nil, fmt.Errorf("ingest: PUSH_DATA payload: %w", err)
		}
		p.RXPK = sc.rx
	case TxAck:
		// The body is optional: success may be an empty datagram.
		if rest := buf[headerLen+8:]; len(bytes.TrimSpace(rest)) > 0 {
			ackErr, err := sc.decodeTxAck(rest)
			if err != nil {
				return nil, fmt.Errorf("ingest: TX_ACK payload: %w", err)
			}
			p.TxAckErr = ackErr
		}
	}
	return p, nil
}

// DecodeDownstream parses a server→gateway datagram (PUSH_ACK, PULL_ACK
// or PULL_RESP — the kinds a gateway receives), for the replay load
// generator's simulated gateways and for tests.
func DecodeDownstream(buf []byte) (*Packet, error) {
	if len(buf) < headerLen {
		return nil, fmt.Errorf("ingest: datagram too short (%d bytes)", len(buf))
	}
	p := &Packet{
		Version: buf[0],
		Token:   uint16(buf[1]) | uint16(buf[2])<<8,
		Kind:    buf[3],
	}
	if p.Version != ProtocolVersion {
		return nil, fmt.Errorf("ingest: protocol version %d (want %d)", p.Version, ProtocolVersion)
	}
	switch p.Kind {
	case PushAck, PullAck:
		// Header only.
	case PullResp:
		var sc ParseScratch
		tx := new(TXPK)
		if err := sc.decodePullResp(buf[headerLen:], tx); err != nil {
			return nil, fmt.Errorf("ingest: PULL_RESP payload: %w", err)
		}
		p.TXPK = tx
	default:
		return nil, fmt.Errorf("ingest: unexpected downstream packet kind %#02x", p.Kind)
	}
	return p, nil
}

// Ack builds the acknowledgement datagram for this packet (PUSH_ACK or
// PULL_ACK); ok is false for kinds that are not acknowledged.
func (p *Packet) Ack() ([]byte, bool) {
	var kind byte
	switch p.Kind {
	case PushData:
		kind = PushAck
	case PullData:
		kind = PullAck
	default:
		return nil, false
	}
	return []byte{ProtocolVersion, byte(p.Token), byte(p.Token >> 8), kind}, true
}

// EncodePushData builds a PUSH_DATA datagram carrying the given uplinks —
// what a gateway (or the replay load generator) sends.
func EncodePushData(token uint16, eui [8]byte, rxpks []RXPK) ([]byte, error) {
	body, err := json.Marshal(pushPayload{RXPK: rxpks})
	if err != nil {
		return nil, fmt.Errorf("ingest: encode rxpk: %w", err)
	}
	out := make([]byte, 0, headerLen+8+len(body))
	out = append(out, ProtocolVersion, byte(token), byte(token>>8), PushData)
	out = append(out, eui[:]...)
	return append(out, body...), nil
}

// EncodePullData builds a PULL_DATA keepalive datagram.
func EncodePullData(token uint16, eui [8]byte) []byte {
	out := make([]byte, 0, headerLen+8)
	out = append(out, ProtocolVersion, byte(token), byte(token>>8), PullData)
	return append(out, eui[:]...)
}

// EncodePullResp builds a PULL_RESP datagram carrying one downlink — what
// the server sends to the gateway's PULL_DATA source address. PULL_RESP
// carries no gateway EUI: the UDP destination selects the gateway.
func EncodePullResp(token uint16, txpk *TXPK) ([]byte, error) {
	body, err := json.Marshal(pullRespPayload{TXPK: *txpk})
	if err != nil {
		return nil, fmt.Errorf("ingest: encode txpk: %w", err)
	}
	out := make([]byte, 0, headerLen+len(body))
	out = append(out, ProtocolVersion, byte(token), byte(token>>8), PullResp)
	return append(out, body...), nil
}

// EncodeTxAck builds a TX_ACK datagram reporting a downlink's fate — what
// a gateway (or a simulated one) sends after a PULL_RESP. The token must
// echo the PULL_RESP's. An empty errStr omits the JSON body (the legacy
// success spelling); TxErrNone reports success explicitly.
func EncodeTxAck(token uint16, eui [8]byte, errStr string) ([]byte, error) {
	out := make([]byte, 0, headerLen+8+48)
	out = append(out, ProtocolVersion, byte(token), byte(token>>8), TxAck)
	out = append(out, eui[:]...)
	if errStr == "" {
		return out, nil
	}
	var body txAckPayload
	body.Ack.Error = errStr
	b, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("ingest: encode txpk_ack: %w", err)
	}
	return append(out, b...), nil
}
