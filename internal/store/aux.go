package store

import "evorec/internal/store/vfs"

// Auxiliary segment kinds. The dictionary/snapshot/delta kinds (1-3) belong
// to the version chain and kind 6 to its write-ahead log; the kinds below
// frame the feed subsystem's files (internal/feed) in the same
// magic/length/CRC32 envelope, so every durable byte in an evorec data
// directory rejects truncation and corruption the same way. The framing
// helpers are exported for exactly that reuse — the payload codecs stay with
// their owning packages to keep layering intact (store knows triples, not
// subscribers).
const (
	// KindFeedLog frames one user's feed log (internal/feed).
	KindFeedLog byte = 4
	// KindSubscribers frames the subscriber registry (internal/feed).
	KindSubscribers byte = 5
)

// WriteKindedSegmentFS frames payload under the given segment kind and
// writes it to path on fsys through a temp file and rename, so a crash
// never leaves a torn file under the final name. With durable set the temp
// file is fsynced before the rename and the directory after it, so the
// rename itself survives power loss; with durable unset the caller owes a
// later SyncPath + SyncDir before relying on the bytes across a crash.
func WriteKindedSegmentFS(fsys vfs.FS, path string, kind byte, payload []byte, durable bool) (int64, error) {
	return writeSegment(fsys, path, kind, payload, durable)
}

// ReadKindedSegmentFS reads dir/file on fsys and unframes it, validating
// magic, kind, exact length and checksum.
func ReadKindedSegmentFS(fsys vfs.FS, dir, file string, kind byte) ([]byte, error) {
	return readSegment(fsys, dir, file, kind)
}

// EncodeKindedSegment frames payload in memory — what WriteKindedSegmentFS
// persists. Fuzz harnesses use it to seed well-formed segments.
func EncodeKindedSegment(kind byte, payload []byte) []byte {
	buf := make([]byte, 0, segHeaderLen+len(payload)+segTrailerLen)
	return appendFramed(buf, kind, payload)
}

// DecodeKindedSegment validates the framing of a whole segment held in
// memory and returns its payload; name labels errors.
func DecodeKindedSegment(name string, data []byte, kind byte) ([]byte, error) {
	return decodeSegment(name, data, kind)
}

// WriteFileAtomicFS writes data to path on fsys through a sibling temp file
// + rename, the same all-or-nothing discipline every store file lands with;
// durable adds the fsyncs that make the rename survive a crash. The feed
// manifest uses it so its commit point is a single rename.
func WriteFileAtomicFS(fsys vfs.FS, path string, data []byte, durable bool) error {
	return vfs.WriteFileAtomic(fsys, path, data, durable)
}

// ValidSegmentFileName reports whether name is a plain file name that
// resolves inside its directory: no separators, no "..", nothing rooted.
// Readers of untrusted manifests (the feed's included) refuse anything else.
func ValidSegmentFileName(name string) bool { return validFileName(name) }
