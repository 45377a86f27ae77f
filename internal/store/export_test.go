package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// walBodies reads a durable database's log back, record by record, and
// returns each record's body (the kind byte first, the sequence prefix
// stripped) in log order. It frames records the way replay does and
// fails the test on any record replay would not accept, torn tails
// included: the tests that read it write whole logs.
func walBodies(t testing.TB, db *DB) [][]byte {
	t.Helper()
	data, err := db.fsys.ReadFile(db.walPath())
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(bytes.NewReader(data))
	var bodies [][]byte
	for {
		n, err := binary.ReadUvarint(r)
		if errors.Is(err, io.EOF) {
			return bodies
		}
		if err != nil || n > maxWALRecord {
			t.Fatalf("WAL record %d: bad length prefix (%d, %v)", len(bodies)+1, n, err)
		}
		payload := make([]byte, n)
		var crc [4]byte
		if _, err := io.ReadFull(r, payload); err != nil {
			t.Fatalf("WAL record %d: %v", len(bodies)+1, err)
		}
		if _, err := io.ReadFull(r, crc[:]); err != nil {
			t.Fatalf("WAL record %d: %v", len(bodies)+1, err)
		}
		if binary.LittleEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(payload) {
			t.Fatalf("WAL record %d fails its checksum", len(bodies)+1)
		}
		_, m := binary.Uvarint(payload)
		if m <= 0 {
			t.Fatalf("WAL record %d has no sequence prefix", len(bodies)+1)
		}
		bodies = append(bodies, payload[m:])
	}
}

// NewTable creates an empty table outside any DB, with a dictionary of
// its own.
func NewTable(name string, schema *Schema) *Table { return newTable(name, schema, newDict()) }
