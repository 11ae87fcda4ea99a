package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// refScan is the test's independent reading of the frame format: the valid
// prefix of data as [payload...]. Recovery must return exactly this — no
// frame past the first corruption may be resurrected.
func refScan(data []byte) [][]byte {
	var frames [][]byte
	off := 0
	for off+frameHeader <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > maxFrameBytes || off+frameHeader+n > len(data) {
			break
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		frames = append(frames, payload)
		off += frameHeader + n
	}
	return frames
}

// FuzzJournalRecover feeds arbitrary bytes to recovery as a segment file:
// truncated tails, bit flips, garbage appended after valid frames, pure
// noise. Recovery must never panic, must replay exactly the valid prefix,
// and must leave a journal that still accepts appends and recovers them.
func FuzzJournalRecover(f *testing.F) {
	valid := func(payloads ...string) []byte {
		var buf bytes.Buffer
		for _, p := range payloads {
			buf.Write(frame([]byte(p)))
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add(valid("one"))
	f.Add(valid("one", "two", "three"))
	f.Add(valid("one", "two")[:11])                            // torn mid-frame
	f.Add(append(valid("ok"), 0xff, 0x00, 0x13))               // garbage tail
	f.Add(append(valid("ok"), valid("next")...))               // all good
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3}) // absurd length
	flip := valid("aaaa", "bbbb")
	flip[frameHeader] ^= 0x01 // CRC mismatch in the first frame
	f.Add(flip)
	zero := make([]byte, 64) // zero length field: bogus frame at offset 0
	f.Add(zero)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, "seg-00000001.wal")
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}

		j, rec, err := Open(Options{Dir: dir})
		if err != nil {
			// Recovery errors only on real I/O failures, which a byte pattern
			// cannot cause.
			t.Fatalf("Open on fuzzed segment: %v", err)
		}

		want := refScan(data)
		if len(rec.Records) != len(want) {
			t.Fatalf("recovered %d records, reference scan says %d (input %d bytes)", len(rec.Records), len(want), len(data))
		}
		for i := range want {
			if !bytes.Equal(rec.Records[i], want[i]) {
				t.Fatalf("record[%d] mismatch", i)
			}
		}
		if rec.Snapshot != nil {
			t.Fatalf("snapshot invented from segment bytes: %q", rec.Snapshot)
		}

		// The recovered journal must be live: append, close, recover again,
		// and see the valid prefix plus the new record.
		if err := j.Append([]byte("post-recovery")).Wait(); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		j2, rec2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer j2.Close()
		if len(rec2.Records) != len(want)+1 {
			t.Fatalf("second recovery has %d records, want %d", len(rec2.Records), len(want)+1)
		}
		if got := rec2.Records[len(rec2.Records)-1]; string(got) != "post-recovery" {
			t.Fatalf("last record = %q", got)
		}
		if rec2.Truncated != 0 {
			t.Fatalf("second recovery truncated %d bytes — first recovery left a torn tail behind", rec2.Truncated)
		}
	})
}
