package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
)

// decodeJSON parses a request body into v: one JSON value, unknown fields
// rejected, anything after the value ignored. The decoder comes from a
// pool and goes back only when strictDecoder.decode says it may.
func decodeJSON(r *http.Request, v any) *httpError {
	d := decoders.Get().(*strictDecoder)
	reuse, err := d.decode(http.MaxBytesReader(nil, r.Body, maxRequestBody), v)
	if reuse {
		decoders.Put(d)
	}
	if err != nil {
		return decodeError(err)
	}
	return nil
}

// decodeError maps a decode failure to its 400.
func decodeError(err error) *httpError {
	if errors.Is(err, io.EOF) {
		return badRequest("empty request body (expected JSON)")
	}
	return badRequest("invalid JSON request: %v", err)
}

// Pooled decoders go back to the pool only after bodies of at most
// maxPooledBody bytes (the cap fmt uses for its printer pool), so one
// large body cannot pin its buffer in the pool. To see the body end,
// decode reads at most maxTrailing bytes past what the decoder buffered.
const (
	maxPooledBody = 64 << 10
	maxTrailing   = 512
)

// decoders recycles strict request decoders. A json.Decoder keeps its read
// buffer and scanner stack between values; a new decoder per request grows
// a new buffer (512 B, then 1.5, 3.5, 7.5, 15.5 KB) for every body.
var decoders = sync.Pool{New: func() any { return newStrictDecoder() }}

// strictDecoder is a json.Decoder with unknown fields disallowed, reading
// whichever request body body points at.
type strictDecoder struct {
	dec  *json.Decoder
	body countingReader
	tail [maxTrailing]byte
}

func newStrictDecoder() *strictDecoder {
	d := new(strictDecoder)
	d.dec = json.NewDecoder(&d.body)
	d.dec.DisallowUnknownFields()
	return d
}

// countingReader reads the current body and counts the bytes it returned.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// decode decodes one JSON value from body into v. It reports whether the
// decoder may decode another body: only after a decode that succeeded, on
// a body of at most maxPooledBody bytes with nothing but whitespace after
// the value. Such a decoder holds at most whitespace in its buffer, so it
// only ever reads a valid stream of one-value bodies and decodes each one
// as a new decoder would. Any error (json.Decoder keeps a read error
// forever) or other trailing byte retires it.
func (d *strictDecoder) decode(body io.Reader, v any) (reuse bool, err error) {
	d.body = countingReader{r: body}
	err = d.dec.Decode(v)
	reuse = err == nil && d.blankToEOF(d.dec.Buffered(), false) &&
		d.blankToEOF(&d.body, true) && d.body.n <= maxPooledBody
	d.body.r = nil // a pooled decoder must not keep the request alive
	return reuse, err
}

// blankToEOF reports whether r holds nothing but JSON whitespace up to its
// end, reading it through d.tail. A bounded read stops after len(d.tail)
// bytes and reports false if r had more.
func (d *strictDecoder) blankToEOF(r io.Reader, bounded bool) bool {
	for off := 0; off < len(d.tail); {
		n, err := r.Read(d.tail[off:])
		for _, c := range d.tail[off : off+n] {
			if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
				return false
			}
		}
		if err != nil {
			return err == io.EOF
		}
		if bounded {
			off += n
		}
	}
	return false
}
