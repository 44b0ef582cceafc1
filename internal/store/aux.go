package store

import (
	"encoding/binary"
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

// NextFrame validates the frame of the given kind starting at off in an
// append-only log of frames and returns its payload and the next frame's
// offset. ok is false when the remaining bytes do not hold one whole valid
// frame: the torn tail a crash mid-append leaves.
func NextFrame(data []byte, off int, kind byte) (payload []byte, next int, ok bool) {
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
