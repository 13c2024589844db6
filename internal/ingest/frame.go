// Package ingest is the streaming write path: compute nodes ship
// TACC_Stats records to supremm-serve's -ingest-addr as length-framed
// chunks over TCP, a router hashes each job to a shard, per-shard summarizers
// finalize jobs on epilog (or idle timeout), and finalized summaries
// flow into the warehouse.
//
// The package's headline contract is exact record conservation: every
// record the server accepts is summarized exactly once or dropped under
// a named reason, and the per-shard ledger proves it —
//
//	received == summarized + Σ dropped{reason}
//
// holds exactly after a drain, under fault injection, at any shard
// count. The wire protocol makes the client side of the join exact too:
// every frame is acknowledged with a cumulative sequence number, frames
// are deduplicated server-side by (client, seq), and a client that
// retries until acked therefore knows that acked == received with no
// double counting.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame types. Hello opens a connection and names the client so the
// server can resume its sequence; Data carries a taccstats.Chunk of
// records; Meta carries job accounting metadata; Ack is the server's
// cumulative acknowledgement.
const (
	FrameHello = byte(1)
	FrameData  = byte(2)
	FrameMeta  = byte(3)
	FrameAck   = byte(4)
)

// frameMagic opens every frame ("SRM1": SUPReMM wire, version 1).
const frameMagic = uint32(0x53524D31)

// headerSize is the fixed frame header length in bytes:
// magic(4) type(1) reserved(1) records(2) length(4) seq(8) sum(8).
const headerSize = 28

// DefaultMaxPayload bounds a frame payload. A chunk of a few hundred
// samples encodes in tens of KiB; 1 MiB leaves generous headroom while
// keeping a corrupt length field from provoking a giant allocation.
const DefaultMaxPayload = 1 << 20

// Framing errors. ReadFrame returns these (wrapped with context) so
// the server can distinguish a malformed peer from a dead connection.
var (
	ErrBadMagic    = errors.New("ingest: bad frame magic")
	ErrBadType     = errors.New("ingest: unknown frame type")
	ErrBadReserved = errors.New("ingest: nonzero reserved header byte")
	ErrOversized   = errors.New("ingest: frame payload exceeds limit")
	ErrChecksum    = errors.New("ingest: frame checksum mismatch")
)

// Frame is one wire frame. Records is the sender's claimed record
// (sample) count for Data frames — carried in the header so that even a
// frame whose payload fails to decode can be accounted exactly in the
// conservation ledger.
type Frame struct {
	Type    byte
	Records uint16
	Seq     uint64
	Payload []byte
}

// fnv64a hashes the payload (FNV-1a, the repo's standard digest).
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// AppendFrame appends the encoded frame to dst and returns the result.
func AppendFrame(dst []byte, f *Frame) []byte {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], frameMagic)
	hdr[4] = f.Type
	hdr[5] = 0
	binary.BigEndian.PutUint16(hdr[6:8], f.Records)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(f.Payload)))
	binary.BigEndian.PutUint64(hdr[12:20], f.Seq)
	binary.BigEndian.PutUint64(hdr[20:28], fnv64a(f.Payload))
	dst = append(dst, hdr[:]...)
	return append(dst, f.Payload...)
}

// WriteFrame encodes and writes one frame.
func WriteFrame(w io.Writer, f *Frame) error {
	_, err := w.Write(AppendFrame(nil, f))
	return err
}

// ReadFrame reads exactly one frame. It validates the header before
// allocating for the payload (a corrupt length can never provoke an
// oversized read), verifies the payload checksum, and never reads past
// the end of the frame. maxPayload <= 0 means DefaultMaxPayload.
//
// io.EOF is returned unwrapped when the stream ends cleanly between
// frames; any other failure wraps one of the framing errors or the
// underlying read error.
func ReadFrame(r io.Reader, maxPayload int) (*Frame, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("ingest: reading frame header: %w", err)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, fmt.Errorf("ingest: reading frame header: %w", errShort(err))
	}
	if got := binary.BigEndian.Uint32(hdr[0:4]); got != frameMagic {
		return nil, fmt.Errorf("%w: 0x%08x", ErrBadMagic, got)
	}
	f := &Frame{Type: hdr[4]}
	switch f.Type {
	case FrameHello, FrameData, FrameMeta, FrameAck:
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, f.Type)
	}
	if hdr[5] != 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadReserved, hdr[5])
	}
	f.Records = binary.BigEndian.Uint16(hdr[6:8])
	length := binary.BigEndian.Uint32(hdr[8:12])
	if int64(length) > int64(maxPayload) {
		return nil, fmt.Errorf("%w: %d > %d", ErrOversized, length, maxPayload)
	}
	f.Seq = binary.BigEndian.Uint64(hdr[12:20])
	sum := binary.BigEndian.Uint64(hdr[20:28])
	if length > 0 {
		f.Payload = make([]byte, length)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return nil, fmt.Errorf("ingest: reading frame payload: %w", errShort(err))
		}
	}
	if got := fnv64a(f.Payload); got != sum {
		return nil, fmt.Errorf("%w: got 0x%016x want 0x%016x", ErrChecksum, got, sum)
	}
	return f, nil
}

// errShort normalizes a mid-frame EOF to ErrUnexpectedEOF so callers
// can't mistake a truncated frame for a clean close.
func errShort(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
