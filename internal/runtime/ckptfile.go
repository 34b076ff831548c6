package runtime

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Checkpoint *files* wrap the JSON snapshot in a fixed header — magic,
// format version, payload length, CRC32C — so a truncated or bit-flipped
// file is rejected as ErrCorruptCheckpoint before the JSON decoder ever
// sees it (a raw decode error cannot distinguish "corrupt" from "not a
// checkpoint", and worse, a flipped digit inside a JSON number decodes
// fine). The durable Store keeps several generations and falls back to the
// previous good one when the newest fails this check.
//
// Layout: magic "NPRTCKP1" (8 bytes) · u32 LE file-format version ·
// u64 LE payload length · u32 LE CRC32C(payload) · payload (JSON).

// CheckpointFileVersion is the framed-file format version (independent of
// CheckpointVersion, which versions the JSON payload inside).
const CheckpointFileVersion = 1

const ckptHeaderSize = 24

var ckptMagic = [8]byte{'N', 'P', 'R', 'T', 'C', 'K', 'P', '1'}

// ErrCorruptCheckpoint reports file-level corruption of a framed
// checkpoint: bad magic, truncation, length mismatch, or checksum failure.
// (ErrCheckpointCorrupt, by contrast, reports a well-framed snapshot whose
// *content* is inconsistent.)
var ErrCorruptCheckpoint = errors.New("runtime: corrupt checkpoint file")

// FileCheckpoint is what a framed checkpoint file carries: the snapshot
// plus its durable-store cursor — the journal index the snapshot covers
// and the lifetime count of journaled events, which lets a tape-driven
// restart skip exactly the events it already applied.
type FileCheckpoint struct {
	WALIndex      uint64 `json:"wal_index"`
	EventsApplied uint64 `json:"events_applied"`
	// MaxSeq is the highest Event.Seq this store has journaled (0 when the
	// store has never seen sequenced events) — the cluster tape cursor.
	MaxSeq     uint64      `json:"max_seq,omitempty"`
	Checkpoint *Checkpoint `json:"checkpoint"`
}

// EncodeCheckpointFile frames one snapshot.
func EncodeCheckpointFile(fc *FileCheckpoint) ([]byte, error) {
	payload, err := json.MarshalIndent(fc, "", "  ")
	if err != nil {
		return nil, err
	}
	return frameCheckpoint(payload), nil
}

// frameCheckpoint prepends the header to an encoded FileCheckpoint.
func frameCheckpoint(payload []byte) []byte {
	buf := make([]byte, ckptHeaderSize+len(payload))
	copy(buf, ckptMagic[:])
	binary.LittleEndian.PutUint32(buf[8:], CheckpointFileVersion)
	binary.LittleEndian.PutUint64(buf[12:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[20:], crc32.Checksum(payload, castagnoliCkpt))
	copy(buf[ckptHeaderSize:], payload)
	return buf
}

var castagnoliCkpt = crc32.MakeTable(crc32.Castagnoli)

// DecodeCheckpointFile validates the frame and payload checksum, then
// decodes and semantically validates the snapshot (FromCheckpoint rules
// apply — the returned FileCheckpoint is only handed out after the
// embedded checkpoint restored successfully).
//
// A payload that begins with '{' where the magic should be is accepted as
// a legacy unframed checkpoint (pre-journal snapshots), so old state files
// still restore; they just lack the corruption tripwire.
func DecodeCheckpointFile(data []byte) (*FileCheckpoint, *Runtime, error) {
	if len(data) > 0 && data[0] == '{' {
		// Legacy raw-JSON snapshot: no cursor, journal starts from zero.
		r, err := Restore(bytes.NewReader(data))
		if err != nil {
			return nil, nil, err
		}
		cp := r.Checkpoint()
		return &FileCheckpoint{Checkpoint: cp}, r, nil
	}
	if len(data) < ckptHeaderSize {
		return nil, nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrCorruptCheckpoint, len(data))
	}
	if [8]byte(data[:8]) != ckptMagic {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrCorruptCheckpoint)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != CheckpointFileVersion {
		return nil, nil, fmt.Errorf("%w: file version %d (reader knows %d)",
			ErrCheckpointVersion, v, CheckpointFileVersion)
	}
	n := binary.LittleEndian.Uint64(data[12:])
	if n != uint64(len(data)-ckptHeaderSize) {
		return nil, nil, fmt.Errorf("%w: header says %d payload bytes, file has %d",
			ErrCorruptCheckpoint, n, len(data)-ckptHeaderSize)
	}
	payload := data[ckptHeaderSize:]
	if crc32.Checksum(payload, castagnoliCkpt) != binary.LittleEndian.Uint32(data[20:]) {
		return nil, nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptCheckpoint)
	}
	var fc FileCheckpoint
	if err := json.Unmarshal(payload, &fc); err != nil {
		// The checksum passed, so this is a writer bug, not bit rot — but
		// the caller's recovery (fall back a generation) is the same.
		return nil, nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	if fc.Checkpoint == nil {
		return nil, nil, fmt.Errorf("%w: no snapshot in payload", ErrCorruptCheckpoint)
	}
	r, err := FromCheckpoint(fc.Checkpoint)
	if err != nil {
		return nil, nil, err
	}
	return &fc, r, nil
}

// ReadCheckpointFile loads and validates one framed checkpoint file.
func ReadCheckpointFile(path string) (*FileCheckpoint, *Runtime, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return DecodeCheckpointFile(data)
}

// WriteCheckpointFile frames and writes a snapshot atomically and durably:
// temp file in the same directory, write, fsync, rename, fsync directory.
// afterSync (optional) fires after each of the two fsyncs — the crash-point
// hook, shared with the journal.
func WriteCheckpointFile(path string, fc *FileCheckpoint, afterSync func()) error {
	buf, err := EncodeCheckpointFile(fc)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	cleanup := func() { tmp.Close(); os.Remove(tmp.Name()) }
	if _, err := tmp.Write(buf); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if afterSync != nil {
		afterSync()
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	if err := d.Close(); err != nil {
		return err
	}
	if afterSync != nil {
		afterSync()
	}
	return nil
}
