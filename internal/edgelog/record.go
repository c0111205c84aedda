// Record framing for the edge write-ahead log.
//
// A segment file is a 16-byte header followed by a sequence of framed
// records:
//
//	header:  "MINTWAL1" (8 bytes) | version uint32 LE | reserved uint32 LE
//	frame:   length uint32 LE | crc32(IEEE, payload) uint32 LE | payload
//	payload: kind uint8
//	         seq uint64 LE                 (global, contiguous from 1)
//	         ...kind-specific body
//
// Kind KindEdges (1) — one durable edge batch:
//
//	clientIDLen uint16 LE | clientID bytes
//	clientSeq uint64 LE
//	edgeCount uint32 LE
//	edgeCount × (src int32 LE | dst int32 LE | time int64 LE)
//
// Kind KindEpoch (2) — an epoch bump (replication fencing; see BumpEpoch):
//
//	epoch uint64 LE
//
// Kind KindStanding (3) — a standing-query registration change:
//
//	op uint8 | delta int64 LE | nameLen uint16 LE | name | specLen uint16 LE | spec
//
// Every decoder error is positioned (segment-relative byte offset) and
// classified: ErrTornTail means "the bytes simply stop mid-frame", while
// a CRC or structural mismatch inside a complete frame is a
// *CorruptError. Where the damage sits decides what Open does with it:
// in the final segment either kind is a crash's residue and is cut,
// loudly, at the last whole record; anywhere else it is refused.
package edgelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"mint/internal/temporal"
)

const (
	segMagic   = "MINTWAL1"
	segVersion = 1
	headerLen  = 16
	frameLen   = 8 // length + crc
	// maxRecordLen caps a single record's payload so a corrupt length
	// field cannot drive a multi-GB allocation before the CRC check runs.
	// Append enforces the same cap on the way in: a batch that would
	// encode past it is rejected before any bytes are written, so every
	// acked record is replayable.
	maxRecordLen = 1 << 26

	// recordOverhead is the fixed payload cost of an edges record before
	// the client id and edges: kind + seq + clientIDLen + clientSeq +
	// edgeCount.
	recordOverhead = 1 + 8 + 2 + 8 + 4
)

// Record kinds. Zero is treated as KindEdges on encode so pre-epoch
// callers constructing Record literals keep working.
const (
	KindEdges    = 1 // an edge batch (the only kind before replication)
	KindEpoch    = 2 // an epoch bump: fences deposed primaries
	KindStanding = 3 // a standing-query register/unregister
)

// Standing-record operations.
const (
	StandingRegister   uint8 = 1
	StandingUnregister uint8 = 2
)

// maxStandingStrLen bounds the name and spec of a standing record so a
// registration can never approach the record cap.
const maxStandingStrLen = 1 << 15

// StandingOp is the body of a KindStanding record: one registration
// change on the standing-query board, durable so the board survives
// restart and ships to followers like any other record.
type StandingOp struct {
	Op    uint8  `json:"op"`
	Name  string `json:"name"`
	Spec  string `json:"spec,omitempty"`
	Delta int64  `json:"delta,omitempty"`
}

// MaxBatchEdges is the largest edge batch one record can carry (with an
// empty client id); Append rejects anything that would encode past
// maxRecordLen, because the replay decoder refuses such records.
const MaxBatchEdges = (maxRecordLen - recordOverhead) / 16

// encodedPayloadLen mirrors encodeRecord's layout: the payload size of a
// record with the given client id and edge count, in int64 so callers
// can compare against maxRecordLen without overflow.
func encodedPayloadLen(clientIDLen, edgeCount int) int64 {
	return recordOverhead + int64(clientIDLen) + 16*int64(edgeCount)
}

// Record is one durable append. Kind selects which body fields are
// meaningful: KindEdges carries ClientID/ClientSeq/Edges (the client
// identity is what makes idempotent retry possible), KindEpoch carries
// Epoch, KindStanding carries Standing. Kind zero encodes as KindEdges.
type Record struct {
	Seq       uint64
	Kind      uint8
	ClientID  string
	ClientSeq uint64
	Edges     []temporal.Edge
	Epoch     uint64
	Standing  *StandingOp
}

// ErrTornTail tags decode failures consistent with a write that was cut
// off mid-record (crash, SIGKILL, full disk). Like any damage, Open cuts
// it only in the final segment; a torn middle segment means bytes after
// it were acked against a hole and is corruption.
var ErrTornTail = errors.New("edgelog: torn record tail")

// CorruptError is a positioned decode failure: what went wrong and at
// which byte offset of which segment. It deliberately does not unwrap to
// ErrTornTail: Open refuses it wherever it is not the final segment's
// tail, including a torn frame in an earlier segment, which it reports
// as a CorruptError.
type CorruptError struct {
	Segment string // file name, "" when decoding a bare buffer
	Offset  int64  // byte offset of the failed frame within the segment
	Reason  string
}

func (e *CorruptError) Error() string {
	if e.Segment == "" {
		return fmt.Sprintf("edgelog: corrupt record at offset %d: %s", e.Offset, e.Reason)
	}
	return fmt.Sprintf("edgelog: %s: corrupt record at offset %d: %s", e.Segment, e.Offset, e.Reason)
}

// encodeRecord appends the framed record to buf and returns the extended
// slice. Encoding cannot fail: limits are enforced at Append time.
func encodeRecord(buf []byte, r Record) []byte {
	lenAt := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	crcAt := len(buf)
	buf = append(buf, 0, 0, 0, 0) // crc placeholder
	payloadAt := len(buf)
	switch r.Kind {
	case KindEpoch:
		buf = append(buf, KindEpoch)
		buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, r.Epoch)
	case KindStanding:
		buf = append(buf, KindStanding)
		buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
		buf = append(buf, r.Standing.Op)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Standing.Delta))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Standing.Name)))
		buf = append(buf, r.Standing.Name...)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Standing.Spec)))
		buf = append(buf, r.Standing.Spec...)
	default: // KindEdges and the zero value
		buf = append(buf, KindEdges)
		buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.ClientID)))
		buf = append(buf, r.ClientID...)
		buf = binary.LittleEndian.AppendUint64(buf, r.ClientSeq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Edges)))
		for _, e := range r.Edges {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Src))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Dst))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Time))
		}
	}
	binary.LittleEndian.PutUint32(buf[lenAt:], uint32(len(buf)-payloadAt))
	binary.LittleEndian.PutUint32(buf[crcAt:], crc32.ChecksumIEEE(buf[payloadAt:]))
	return buf
}

// DecodeRecord decodes one framed record from the front of b, returning
// the record and the number of bytes consumed. Errors are either
// ErrTornTail-wrapped (b ends mid-frame — more bytes might complete it)
// or a *CorruptError positioned at offset 0 of the buffer. It never
// panics on arbitrary input; FuzzEdgeLogDecode enforces that.
func DecodeRecord(b []byte) (Record, int, error) {
	return decodeRecordAt(b, "", 0)
}

// decodeRecordAt is DecodeRecord with error positioning: off is the
// absolute offset of b[0] within segment seg.
func decodeRecordAt(b []byte, seg string, off int64) (Record, int, error) {
	var rec Record
	if len(b) < frameLen {
		return rec, 0, fmt.Errorf("%w: %d bytes where a frame header needs %d", ErrTornTail, len(b), frameLen)
	}
	payloadLen := binary.LittleEndian.Uint32(b[0:4])
	wantCRC := binary.LittleEndian.Uint32(b[4:8])
	if payloadLen > maxRecordLen {
		return rec, 0, &CorruptError{Segment: seg, Offset: off,
			Reason: fmt.Sprintf("payload length %d exceeds cap %d", payloadLen, maxRecordLen)}
	}
	if uint64(len(b)) < frameLen+uint64(payloadLen) {
		return rec, 0, fmt.Errorf("%w: frame declares %d payload bytes, %d present",
			ErrTornTail, payloadLen, len(b)-frameLen)
	}
	payload := b[frameLen : frameLen+int(payloadLen)]
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return rec, 0, &CorruptError{Segment: seg, Offset: off,
			Reason: fmt.Sprintf("crc mismatch: stored %08x, computed %08x", wantCRC, got)}
	}
	// The CRC passed, so from here every structural failure is corruption
	// of whatever wrote the record, not a torn write.
	bad := func(reason string) (Record, int, error) {
		return Record{}, 0, &CorruptError{Segment: seg, Offset: off, Reason: reason}
	}
	p := payload
	if len(p) < 1 {
		return bad("empty payload")
	}
	rec.Kind = p[0]
	p = p[1:]
	if len(p) < 8 {
		return bad("payload truncated before sequence")
	}
	rec.Seq = binary.LittleEndian.Uint64(p)
	p = p[8:]
	switch rec.Kind {
	case KindEdges:
	case KindEpoch:
		if len(p) != 8 {
			return bad(fmt.Sprintf("epoch record body is %d bytes, want 8", len(p)))
		}
		rec.Epoch = binary.LittleEndian.Uint64(p)
		return rec, frameLen + int(payloadLen), nil
	case KindStanding:
		if len(p) < 1+8+2 {
			return bad("standing record truncated before name")
		}
		op := StandingOp{Op: p[0], Delta: int64(binary.LittleEndian.Uint64(p[1:]))}
		p = p[1+8:]
		nameLen := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < nameLen+2 {
			return bad(fmt.Sprintf("standing record truncated inside name of length %d", nameLen))
		}
		op.Name = string(p[:nameLen])
		p = p[nameLen:]
		specLen := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) != specLen {
			return bad(fmt.Sprintf("standing spec length %d does not match %d remaining payload bytes", specLen, len(p)))
		}
		op.Spec = string(p)
		rec.Standing = &op
		return rec, frameLen + int(payloadLen), nil
	default:
		return bad(fmt.Sprintf("unknown record kind %d", rec.Kind))
	}
	if len(p) < 2 {
		return bad("payload truncated before client id")
	}
	idLen := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if len(p) < idLen+8+4 {
		return bad(fmt.Sprintf("payload truncated inside client id of length %d", idLen))
	}
	rec.ClientID = string(p[:idLen])
	p = p[idLen:]
	rec.ClientSeq = binary.LittleEndian.Uint64(p)
	p = p[8:]
	edgeCount := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if uint64(len(p)) != 16*uint64(edgeCount) {
		return bad(fmt.Sprintf("edge count %d does not match %d remaining payload bytes", edgeCount, len(p)))
	}
	rec.Edges = make([]temporal.Edge, edgeCount)
	for i := range rec.Edges {
		rec.Edges[i] = temporal.Edge{
			Src:  temporal.NodeID(int32(binary.LittleEndian.Uint32(p[0:4]))),
			Dst:  temporal.NodeID(int32(binary.LittleEndian.Uint32(p[4:8]))),
			Time: temporal.Timestamp(int64(binary.LittleEndian.Uint64(p[8:16]))),
		}
		p = p[16:]
	}
	return rec, frameLen + int(payloadLen), nil
}

// encodeHeader renders a segment header.
func encodeHeader() []byte {
	h := make([]byte, headerLen)
	copy(h, segMagic)
	binary.LittleEndian.PutUint32(h[8:], segVersion)
	return h
}

// checkHeader validates a segment header.
func checkHeader(b []byte, seg string) error {
	if len(b) < headerLen {
		return fmt.Errorf("%w: segment header is %d bytes, want %d", ErrTornTail, len(b), headerLen)
	}
	if string(b[:8]) != segMagic {
		return &CorruptError{Segment: seg, Offset: 0, Reason: fmt.Sprintf("bad magic %q", b[:8])}
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != segVersion {
		return &CorruptError{Segment: seg, Offset: 8, Reason: fmt.Sprintf("unsupported version %d", v)}
	}
	return nil
}

// ErrInvalidEdge marks an edge batch the log refuses to accept — a
// caller mistake, not an environment failure. The HTTP ingest layer
// maps it to 400 where I/O failures map to 503.
var ErrInvalidEdge = errors.New("edgelog: invalid edge")

// validateStanding enforces the wire limits of a standing record: the
// encoder stores name and spec lengths as uint16, so oversized strings
// must be refused before any bytes are written.
func validateStanding(op *StandingOp) error {
	if op == nil {
		return fmt.Errorf("%w: standing record without a body", ErrInvalidEdge)
	}
	if op.Op != StandingRegister && op.Op != StandingUnregister {
		return fmt.Errorf("%w: unknown standing op %d", ErrInvalidEdge, op.Op)
	}
	if op.Name == "" {
		return fmt.Errorf("%w: standing record needs a name", ErrInvalidEdge)
	}
	if len(op.Name) >= maxStandingStrLen || len(op.Spec) >= maxStandingStrLen {
		return fmt.Errorf("%w: standing name/spec exceeds the %d-byte limit", ErrInvalidEdge, maxStandingStrLen)
	}
	return nil
}

// validateEdges enforces the same endpoint limits the SNAP loader does,
// so a replayed log can never feed the graph values the miner's int32
// tables cannot hold.
func validateEdges(edges []temporal.Edge) error {
	for i, e := range edges {
		if e.Src < 0 || e.Dst < 0 || int64(e.Src) > math.MaxInt32 || int64(e.Dst) > math.MaxInt32 {
			return fmt.Errorf("%w: edge %d has out-of-range endpoint (%d -> %d)", ErrInvalidEdge, i, e.Src, e.Dst)
		}
	}
	return nil
}
