package mobile

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"
)

// maxFrame bounds one message (defensive).
const maxFrame = 64 << 20

// Frame layout: uvarint body length, then body = flag byte + payload.
// flag 0 is a raw payload; flag 1 a DEFLATE-compressed payload.
const (
	frameRaw     = 0
	frameDeflate = 1
	// compressThreshold is the minimum payload size worth deflating;
	// below it the flate header overhead wins.
	compressThreshold = 512
)

// frameHead is the room a frameWriter reserves in front of a payload:
// the longest uvarint body length, then the flag byte.
const frameHead = binary.MaxVarintLen64 + 1

// zeroHead is the header room deflate writes ahead of its output.
var zeroHead [frameHead]byte

// maxRetained is the most buffer a frameWriter or frameReader keeps
// between frames, and a LOD-delta session keeps of each scratch buffer
// between Opens, so one multi-megabyte reply or viewport is not pinned
// for the rest of its session.
const maxRetained = 64 << 10

// maxInterned bounds the column names a frameReader interns; past it
// the table starts over.
const maxInterned = 1024

// WriteMsg frames and writes one message uncompressed.
func WriteMsg(w io.Writer, msg any) error {
	var f frameWriter
	_, err := f.write(w, msg, false)
	return err
}

// WriteMsgCompressed frames one message, deflating payloads above the
// size threshold. It returns the bytes put on the wire.
func WriteMsgCompressed(w io.Writer, msg any) (int64, error) {
	var f frameWriter
	return f.write(w, msg, true)
}

// ReadMsg reads one framed message, returning the decoded message and
// the number of bytes it occupied on the wire (so clients can account
// for compression accurately).
func ReadMsg(r *bufio.Reader) (any, int64, error) {
	var f frameReader
	return f.read(r)
}

// MsgSize returns the uncompressed framed size of a message, for byte
// accounting without writing.
func MsgSize(msg any) (int64, error) {
	payload, err := encodeMsg(msg)
	if err != nil {
		return 0, err
	}
	return int64(uvarintLen(uint64(len(payload)+1)) + 1 + len(payload)), nil
}

// frameWriter frames messages into one reused buffer and puts each
// frame on the wire with a single Write: the payload is appended behind
// reserved header room, then the body length and flag are written back
// in front of it. A compressing frameWriter deflates through one
// flate.Writer, built on first use and Reset after, which writes the
// bytes a fresh one would. The zero value is ready to use.
type frameWriter struct {
	buf []byte
	z   bytes.Buffer // a deflated payload, behind the same header room
	zw  *flate.Writer
	enc encoder
}

// write frames msg — deflated when compress is set, the payload is at
// least compressThreshold bytes and deflating shrinks it — and returns
// the bytes put on the wire.
func (f *frameWriter) write(w io.Writer, msg any, compress bool) (int64, error) {
	b, err := f.enc.appendMsg(sized(f.buf, frameHead), msg)
	f.buf = retained(b)
	if err != nil {
		return 0, err
	}
	flag := byte(frameRaw)
	if compress && len(b)-frameHead >= compressThreshold {
		z, err := f.deflate(b[frameHead:])
		if err != nil {
			return 0, err
		}
		if len(z) < len(b) {
			b, flag = z, frameDeflate
		}
	}
	body := uint64(len(b) - frameHead + 1)
	start := frameHead - 1 - uvarintLen(body)
	binary.PutUvarint(b[start:], body)
	b[frameHead-1] = flag
	if _, err := w.Write(b[start:]); err != nil {
		return 0, err
	}
	return int64(len(b) - start), nil
}

// deflate compresses payload behind header room in f.z.
func (f *frameWriter) deflate(payload []byte) ([]byte, error) {
	f.z.Reset()
	f.z.Write(zeroHead[:])
	if f.zw == nil {
		zw, err := flate.NewWriter(&f.z, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		f.zw = zw
	} else {
		f.zw.Reset(&f.z)
	}
	if _, err := f.zw.Write(payload); err != nil {
		return nil, err
	}
	if err := f.zw.Close(); err != nil {
		return nil, err
	}
	z := f.z.Bytes()
	if f.z.Cap() > maxRetained {
		f.z = bytes.Buffer{}
	}
	return z, nil
}

// sized returns b's storage resliced to n elements, reallocated — at
// least doubled — only when it is too small.
func sized[S ~[]E, E any](b S, n int) S {
	if cap(b) < n {
		return make(S, n, max(n, 2*cap(b), 512))
	}
	return b[:n]
}

// retained is what a reused buffer keeps for the next frame or Open:
// b, or nothing once b has outgrown maxRetained bytes.
func retained[S ~[]E, E any](b S) S {
	var e E
	if uintptr(cap(b))*unsafe.Sizeof(e) > maxRetained {
		return nil
	}
	return b
}

// frameReader reads frames into one reused buffer and inflates deflated
// payloads through one reused decompressor into a second. Decoded
// messages never alias either buffer. When names is set it interns the
// column names of query results, and when stmts is set it keeps the
// statement templates of queries. The zero value is ready to use.
type frameReader struct {
	body  []byte
	raw   bytes.Buffer     // an inflated payload
	src   bytes.Reader     // a deflated payload, the decompressor's input
	lim   io.LimitedReader // the decompressor, stopped one byte past maxFrame
	zr    io.ReadCloser
	names map[string]string
	stmts *stmtTable
}

// read reads and decodes one frame, returning the message and the bytes
// the frame occupied on the wire. A frame read whole whose payload does
// not decode returns its bytes with the error: the stream is still in
// step.
func (f *frameReader) read(r *bufio.Reader) (any, int64, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, err
	}
	if n > maxFrame {
		return nil, 0, fmt.Errorf("mobile: frame of %d bytes exceeds limit", n)
	}
	if n < 1 {
		return nil, 0, fmt.Errorf("mobile: empty frame")
	}
	body := sized(f.body, int(n))
	f.body = retained(body)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 0, err
	}
	wire := int64(uvarintLen(n) + len(body))
	payload := body[1:]
	switch body[0] {
	case frameRaw:
	case frameDeflate:
		if payload, err = f.inflate(payload); err != nil {
			return nil, 0, fmt.Errorf("mobile: inflating frame: %w", err)
		}
	default:
		return nil, 0, fmt.Errorf("mobile: unknown frame flag %d", body[0])
	}
	d := decoder{p: payload, size: len(payload), names: f.names, stmts: f.stmts}
	msg, err := d.msg()
	return msg, wire, err
}

// inflate decompresses a deflated payload into f.raw.
func (f *frameReader) inflate(p []byte) ([]byte, error) {
	f.src.Reset(p)
	if f.zr == nil {
		f.zr = flate.NewReader(&f.src)
	} else if err := f.zr.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return nil, err
	}
	f.raw.Reset()
	f.lim = io.LimitedReader{R: f.zr, N: maxFrame + 1}
	if _, err := f.raw.ReadFrom(&f.lim); err != nil {
		return nil, err
	}
	if f.raw.Len() > maxFrame {
		return nil, fmt.Errorf("inflates past %d bytes", maxFrame)
	}
	out := f.raw.Bytes()
	if f.raw.Cap() > maxRetained {
		f.raw = bytes.Buffer{}
	}
	return out, nil
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
