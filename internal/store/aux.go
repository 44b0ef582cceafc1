package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// KindFeed frames one record of the feed journal (internal/feed) in the
// envelope the version chain's segments (kinds 1-3) and write-ahead log
// (kind 6) use, so every durable byte in an evorec data directory is framed
// and checksummed the same way. Kinds 4 and 5 framed the feed's
// retired per-user segments and are not reused. The framing helpers below,
// and the primitive codec in format.go (Reader, AppendString, AppendTerm,
// ...), are exported for exactly that reuse; the feed's record layouts stay
// with the feed (store knows triples, not subscribers).
const KindFeed byte = 7

// AppendFrame appends payload to buf in the full segment envelope (header,
// payload, CRC) under the given kind.
func AppendFrame(buf []byte, kind byte, payload []byte) []byte {
	buf = append(buf, segMagic...)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// Frame is one valid frame of an append-only log: its payload and the
// offset it starts at, for error messages.
type Frame struct {
	Off     int
	Payload []byte
}

// ReadFrames walks an append-only log of frames of the given kind — the
// store's write-ahead log and the feed journal both — and returns its valid
// frames in order and the offset where they end. Bytes past end are the
// torn tail a crash mid-append leaves, not an error, unless a valid frame
// starts anywhere after end: nothing is ever appended behind torn bytes, so
// the frame at end is then corrupt, and err says so (frames still holds the
// frames before it).
func ReadFrames(data []byte, kind byte) (frames []Frame, end int, err error) {
	for end < len(data) {
		payload, n, ferr := checkFrame(data[end:], kind)
		if ferr != nil {
			for i := end + 1; i < len(data); i++ {
				if _, _, ferr := checkFrame(data[i:], kind); ferr == nil {
					return frames, end, fmt.Errorf("corrupt frame at offset %d (a valid frame follows at offset %d)", end, i)
				}
			}
			return frames, end, nil
		}
		frames = append(frames, Frame{Off: end, Payload: payload})
		end += n
	}
	return frames, end, nil
}

// Frame check failures. They are values, not formatted per call, because
// ReadFrames probes every offset past a bad frame.
var (
	errFrameHeader   = errors.New("truncated header")
	errFrameMagic    = errors.New("bad magic")
	errFrameLength   = errors.New("length prefix does not match file size")
	errFrameChecksum = errors.New("checksum mismatch")
)

// checkFrame is the one check of a frame's magic, kind, length and
// checksum: ReadFrames runs it at each offset of a log, decodeSegment on a
// whole segment file. It validates the frame of the given kind at the start
// of data, which may run on past it, and returns its payload and framed
// length; the error names the first check that fails.
func checkFrame(data []byte, kind byte) (payload []byte, n int, err error) {
	if len(data) < segHeaderLen+segTrailerLen {
		return nil, 0, errFrameHeader
	}
	if string(data[:4]) != segMagic {
		return nil, 0, errFrameMagic
	}
	if data[4] != kind {
		return nil, 0, fmt.Errorf("kind = %d, want %d", data[4], kind)
	}
	size := int(binary.LittleEndian.Uint32(data[5:9]))
	if size > len(data)-segHeaderLen-segTrailerLen {
		return nil, 0, errFrameLength
	}
	payload = data[segHeaderLen : segHeaderLen+size]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[segHeaderLen+size:]) {
		return nil, 0, errFrameChecksum
	}
	return payload, segHeaderLen + size + segTrailerLen, nil
}

// ValidSegmentFileName reports whether name is a plain file name that
// resolves inside its directory: no separators, no "..", nothing rooted.
// Callers naming directories after untrusted input refuse anything else.
func ValidSegmentFileName(name string) bool { return validFileName(name) }
