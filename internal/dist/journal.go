package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// The checkpoint journal is an append-only text file, one record per
// line:
//
//	<crc32c-hex> <json>\n
//
// where the checksum covers the JSON bytes exactly. The first record is
// the header (type "hdr") carrying the run fingerprint and total; every
// subsequent record is a completion (type "done") committing one closed
// pc-interval with its iteration count and order-independent checksum.
//
// Recovery rules (the crash model is fail-stop during append):
//
//   - a torn FINAL line — missing newline, truncated JSON, checksum
//     mismatch — is the expected residue of a crash mid-append: replay
//     stops at the last valid record and Reopen truncates the tail, so
//     the run resumes having merely lost its final commit;
//   - a bad record anywhere BEFORE the final line means the file body
//     itself is damaged (bit rot, concurrent writers): replay refuses
//     with faults.ErrJournalCorrupt rather than resume from a lie;
//   - an empty or headerless file is corrupt — there is nothing sound
//     to resume from.
type journalRecord struct {
	Type string `json:"t"` // "hdr" | "done"

	// Header fields.
	Version     int    `json:"v,omitempty"`
	Fingerprint string `json:"fp,omitempty"`
	Total       int64  `json:"total,omitempty"`

	// Completion fields.
	Lo    int64  `json:"lo,omitempty"`
	Hi    int64  `json:"hi,omitempty"`
	Iters int64  `json:"iters,omitempty"`
	Sum   uint64 `json:"sum,omitempty"`
}

const journalVersion = 1

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Journal is the open, writable checkpoint log of one run. Append is
// not safe for concurrent use; the coordinator serializes commits.
type Journal struct {
	f    *os.File
	w    *bufio.Writer
	hist *telemetry.Histogram // journal fsync latency, may be nil
}

// encodeRecord renders one journal line (with trailing newline).
func encodeRecord(rec journalRecord) []byte {
	body, err := json.Marshal(rec)
	if err != nil {
		panic(fmt.Sprintf("dist: journal record marshal: %v", err)) // struct of scalars; cannot fail
	}
	line := make([]byte, 0, len(body)+10)
	line = append(line, fmt.Sprintf("%08x", crc32.Checksum(body, crcTable))...)
	line = append(line, ' ')
	line = append(line, body...)
	line = append(line, '\n')
	return line
}

// decodeLine validates one journal line's checksum and decodes it.
func decodeLine(line string) (journalRecord, error) {
	var rec journalRecord
	crcHex, body, ok := strings.Cut(line, " ")
	if !ok || len(crcHex) != 8 {
		return rec, fmt.Errorf("malformed line (no checksum prefix)")
	}
	want, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil {
		return rec, fmt.Errorf("malformed checksum %q", crcHex)
	}
	if got := crc32.Checksum([]byte(body), crcTable); got != uint32(want) {
		return rec, fmt.Errorf("checksum mismatch (want %08x, got %08x)", want, got)
	}
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		return rec, fmt.Errorf("record JSON: %v", err)
	}
	return rec, nil
}

// CreateJournal starts a fresh journal at path (truncating any previous
// file) and writes the fsynced header record. tel, which may be nil,
// receives the "dist.journal_fsync_seconds" latency histogram.
func CreateJournal(path, fingerprint string, total int64, tel *telemetry.Registry) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, w: bufio.NewWriter(f), hist: tel.Histogram("dist.journal_fsync_seconds", nil)}
	hdr := journalRecord{Type: "hdr", Version: journalVersion, Fingerprint: fingerprint, Total: total}
	if err := j.append(hdr); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// Append commits one completed interval. The record is flushed and
// fsynced before Append returns: once the coordinator acknowledges a
// completion, a crash cannot un-complete it.
func (j *Journal) Append(iv Interval, iters int64, sum uint64) error {
	return j.append(journalRecord{Type: "done", Lo: iv.Lo, Hi: iv.Hi, Iters: iters, Sum: sum})
}

func (j *Journal) append(rec journalRecord) error {
	if _, err := j.w.Write(encodeRecord(rec)); err != nil {
		return fmt.Errorf("dist: journal append: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("dist: journal flush: %w", err)
	}
	t0 := time.Now()
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("dist: journal fsync: %w", err)
	}
	j.hist.Observe(time.Since(t0).Seconds())
	return nil
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// JournalState is the result of replaying a journal: the header, the
// merged coverage, and the exactly-once totals of the committed
// intervals (duplicate and overlapping records are deduplicated on
// replay, contributing their sums only for newly covered intervals).
type JournalState struct {
	Fingerprint string
	Total       int64
	Done        IntervalSet
	// Iters and Sum are the committed totals across deduplicated
	// records: the progress a resumed run starts from.
	Iters int64
	Sum   uint64
	// Records is the number of valid completion records replayed;
	// Duplicates how many of them were fully covered already.
	Records    int
	Duplicates int
	// TornTail reports that the final line was truncated or corrupt and
	// was dropped; validBytes is the clean prefix length Reopen keeps.
	TornTail   bool
	validBytes int64
	path       string
}

// ReplayJournal reads and validates the journal at path. A torn final
// line is tolerated (TornTail is set and the line ignored); corruption
// anywhere else, a missing header, or an empty file refuses with an
// error wrapping faults.ErrJournalCorrupt.
func ReplayJournal(path string) (*JournalState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("dist: %s: empty journal (no header): %w", path, faults.ErrJournalCorrupt)
	}
	st := &JournalState{path: path}
	rest := string(data)
	offset := int64(0)
	first := true
	for len(rest) > 0 {
		line, tail, sawNL := strings.Cut(rest, "\n")
		rec, derr := decodeLine(line)
		if derr != nil || !sawNL {
			// Invalid here. If this is the FINAL line of the file, it is
			// the torn residue of a crash mid-append: drop it and resume
			// from the clean prefix. Anything before the final line is
			// body corruption.
			if sawNL && strings.TrimSpace(tail) != "" {
				return nil, fmt.Errorf("dist: %s: record %d: %v: %w",
					path, st.Records+1, derr, faults.ErrJournalCorrupt)
			}
			if first {
				return nil, fmt.Errorf("dist: %s: unreadable header: %w", path, faults.ErrJournalCorrupt)
			}
			st.TornTail = true
			break
		}
		if first {
			if rec.Type != "hdr" || rec.Version != journalVersion {
				return nil, fmt.Errorf("dist: %s: first record is not a v%d header: %w",
					path, journalVersion, faults.ErrJournalCorrupt)
			}
			st.Fingerprint = rec.Fingerprint
			st.Total = rec.Total
			first = false
		} else {
			if rec.Type != "done" {
				return nil, fmt.Errorf("dist: %s: record %d: unexpected type %q: %w",
					path, st.Records+1, rec.Type, faults.ErrJournalCorrupt)
			}
			iv := Interval{Lo: rec.Lo, Hi: rec.Hi}
			if iv.Lo < 1 || iv.Hi > st.Total || iv.Lo > iv.Hi {
				return nil, fmt.Errorf("dist: %s: record %d: interval [%d,%d] outside 1..%d: %w",
					path, st.Records+1, iv.Lo, iv.Hi, st.Total, faults.ErrJournalCorrupt)
			}
			st.Records++
			switch added := st.Done.Add(iv); {
			case added == iv.Len():
				st.Iters += rec.Iters
				st.Sum += rec.Sum
			case added == 0:
				// A replayed duplicate (the same interval journaled twice,
				// e.g. by two runs appending to one file): coverage is
				// already accounted and the first completion's sums stand
				// — adding the duplicate's would double-count.
				st.Duplicates++
			default:
				// Partial overlap cannot come from this coordinator:
				// planned shards are disjoint and resume plans over the
				// complement, so a half-covered record means the file
				// mixes incompatible plans.
				return nil, fmt.Errorf("dist: %s: record %d: interval [%d,%d] partially overlaps prior coverage: %w",
					path, st.Records, iv.Lo, iv.Hi, faults.ErrJournalCorrupt)
			}
		}
		offset += int64(len(line)) + 1
		st.validBytes = offset
		rest = tail
	}
	if first {
		return nil, fmt.Errorf("dist: %s: no valid header: %w", path, faults.ErrJournalCorrupt)
	}
	return st, nil
}

// Reopen opens the replayed journal for appending, first truncating the
// torn tail (if any) so the file ends at the last valid record. The
// fingerprint has already been validated by the caller.
func (st *JournalState) Reopen(tel *telemetry.Registry) (*Journal, error) {
	f, err := os.OpenFile(st.path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(st.validBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("dist: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f, w: bufio.NewWriter(f), hist: tel.Histogram("dist.journal_fsync_seconds", nil)}, nil
}
