package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary encoding for values and rows, shared by the WAL, snapshots,
// and the mobile wire protocol. The format is:
//
//	value := kind:uint8 payload
//	  NULL   -> (nothing)
//	  INT    -> zigzag varint
//	  FLOAT  -> 8-byte little-endian IEEE 754
//	  STRING -> uvarint length, bytes
//	  BOOL   -> 1 byte
//	row   := uvarint cell count, values
//
// All readers bound allocations by maxStringLen / maxRowCells so a
// corrupt or malicious stream cannot OOM the process.

const (
	maxStringLen = 16 << 20 // 16 MiB
	maxRowCells  = 1 << 16
)

// AppendValue appends the encoding of v to buf.
func AppendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.K))
	switch v.K {
	case KindNull:
	case KindInt:
		buf = binary.AppendVarint(buf, v.I)
	case KindFloat:
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.F))
		buf = append(buf, tmp[:]...)
	case KindString:
		buf = binary.AppendUvarint(buf, uint64(len(v.S)))
		buf = append(buf, v.S...)
	case KindBool:
		buf = append(buf, byte(v.I))
	}
	return buf
}

// AppendRow appends the encoding of r to buf.
func AppendRow(buf []byte, r Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, v := range r {
		buf = AppendValue(buf, v)
	}
	return buf
}

// AppendCell appends the encoding of cell i of c: the bytes AppendValue
// writes for c.Value(i), without building the Value.
func AppendCell(buf []byte, c *Col, i int) []byte {
	if c.Null[i] {
		return append(buf, byte(KindNull))
	}
	switch c.Kind {
	case KindInt:
		return binary.AppendVarint(append(buf, byte(KindInt)), c.Int[i])
	case KindBool:
		return append(buf, byte(KindBool), byte(c.Int[i]))
	case KindFloat:
		return binary.LittleEndian.AppendUint64(append(buf, byte(KindFloat)), math.Float64bits(c.Float[i]))
	case KindString:
		buf = binary.AppendUvarint(append(buf, byte(KindString)), uint64(len(c.Str[i])))
		return append(buf, c.Str[i]...)
	}
	return AppendValue(buf, c.Vals[i])
}

// AppendBatchRow appends the encoding of row i of cb: the bytes
// AppendRow writes for that row.
func AppendBatchRow(buf []byte, cb *ColBatch, i int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(cb.Cols)))
	for c := range cb.Cols {
		buf = AppendCell(buf, &cb.Cols[c], i)
	}
	return buf
}

// ReadValue decodes one value from r.
func ReadValue(r *bufio.Reader) (Value, error) {
	kb, err := r.ReadByte()
	if err != nil {
		return Value{}, err
	}
	switch Kind(kb) {
	case KindNull:
		return NullValue(), nil
	case KindInt:
		i, err := binary.ReadVarint(r)
		if err != nil {
			return Value{}, fmt.Errorf("store: decoding int: %w", err)
		}
		return IntValue(i), nil
	case KindFloat:
		var tmp [8]byte
		if _, err := io.ReadFull(r, tmp[:]); err != nil {
			return Value{}, fmt.Errorf("store: decoding float: %w", err)
		}
		return FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(tmp[:]))), nil
	case KindString:
		s, err := readString(r)
		if err != nil {
			return Value{}, fmt.Errorf("store: decoding string: %w", err)
		}
		return StringValue(s), nil
	case KindBool:
		b, err := r.ReadByte()
		if err != nil {
			return Value{}, fmt.Errorf("store: decoding bool: %w", err)
		}
		return BoolValue(b != 0), nil
	}
	return Value{}, fmt.Errorf("store: unknown value kind %d", kb)
}

// ReadRow decodes one row from r.
func ReadRow(r *bufio.Reader) (Row, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxRowCells {
		return nil, fmt.Errorf("store: row cell count %d exceeds limit", n)
	}
	row := make(Row, n)
	for i := range row {
		v, err := ReadValue(r)
		if err != nil {
			return nil, fmt.Errorf("store: cell %d: %w", i, err)
		}
		row[i] = v
	}
	return row, nil
}

// EncodedRowSize returns the byte length of a row's encoding without
// allocating it, used by the mobile layer's byte accounting.
func EncodedRowSize(r Row) int {
	n := uvarintLen(uint64(len(r)))
	for _, v := range r {
		n++ // kind byte
		switch v.K {
		case KindInt:
			n += varintLen(v.I)
		case KindFloat:
			n += 8
		case KindString:
			n += uvarintLen(uint64(len(v.S))) + len(v.S)
		case KindBool:
			n++
		}
	}
	return n
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}
