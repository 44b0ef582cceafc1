package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// KindFeed frames one record of the feed journal (internal/feed) in the
// envelope the version chain's segments (kinds 1-3) and write-ahead log
// (kind 6) use, so every durable byte in an evorec data directory is framed
// and checksummed the same way. Kinds 4 and 5 framed the feed's
// retired per-user segments and are not reused. The framing helpers below
// are exported for exactly that reuse — the payload codecs stay with their
// owning packages to keep layering intact (store knows triples, not
// subscribers).
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
		payload, next, ok := nextFrame(data, end, kind)
		if !ok {
			for i := end + 1; i < len(data); i++ {
				if _, _, ok := nextFrame(data, i, kind); ok {
					return frames, end, fmt.Errorf("corrupt frame at offset %d (a valid frame follows at offset %d)", end, i)
				}
			}
			return frames, end, nil
		}
		frames = append(frames, Frame{Off: end, Payload: payload})
		end = next
	}
	return frames, end, nil
}

// nextFrame validates the frame of the given kind starting at off and
// returns its payload and the next frame's offset. ok is false when the
// bytes at off do not hold one whole valid frame.
func nextFrame(data []byte, off int, kind byte) (payload []byte, next int, ok bool) {
	rest := data[off:]
	if len(rest) < segHeaderLen+segTrailerLen {
		return nil, 0, false
	}
	if string(rest[:4]) != segMagic || rest[4] != kind {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(rest[5:9]))
	if len(rest)-segHeaderLen-segTrailerLen < n {
		return nil, 0, false
	}
	payload = rest[segHeaderLen : segHeaderLen+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[segHeaderLen+n:]) {
		return nil, 0, false
	}
	return payload, off + segHeaderLen + n + segTrailerLen, true
}

// ValidSegmentFileName reports whether name is a plain file name that
// resolves inside its directory: no separators, no "..", nothing rooted.
// Callers naming directories after untrusted input refuse anything else.
func ValidSegmentFileName(name string) bool { return validFileName(name) }
