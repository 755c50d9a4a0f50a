package service

import (
	"bytes"
	"net/http"
	"sync"
)

// ingestBufMax is the largest body buffer the ingest pool keeps, and the
// most a request's Content-Length presizes one to: a request that
// declares more than it sends costs at most this much up front.
const ingestBufMax = 1 << 20

// ingestBufs holds the buffers ingest bodies are read into; a body is
// decoded into strings of its own before its buffer goes back.
var ingestBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// DecodeIngest reads a POST /ingest body of at most MaxBodyBytes and
// returns its statements. When it reports false it has answered the
// request: 413 for a larger body, 400 for one that is not an
// IngestRequest or carries no statement. The body is read once into a
// pooled buffer. A body of the documented shape,
// {"statements":[<string>,…]} with any JSON whitespace, is then scanned
// once; every other body goes to encoding/json's Decoder, as any other
// route's body does, so its acceptance and error texts are the stdlib's.
// Either way only JSON whitespace may follow the value.
func DecodeIngest(w http.ResponseWriter, r *http.Request) ([]string, bool) {
	buf := ingestBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= ingestBufMax {
			buf.Reset()
			ingestBufs.Put(buf)
		}
	}()
	if n := r.ContentLength; n > 0 {
		// MinRead more, so the read that meets EOF does not regrow it.
		buf.Grow(int(min(n, ingestBufMax-bytes.MinRead)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		writeBodyError(w, err)
		return nil, false
	}
	stmts, ok := scanIngest(buf.Bytes())
	if !ok {
		var req IngestRequest
		if err := decodeOne(bytes.NewReader(buf.Bytes()), &req); err != nil {
			writeBodyError(w, err)
			return nil, false
		}
		stmts = req.Statements
	}
	if len(stmts) == 0 {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "statements is empty"})
		return nil, false
	}
	return stmts, true
}

// scanIngest decodes b in one pass when it is {"statements":[<string>,…]}
// with any JSON whitespace, and reports whether it was. A string
// without an escape, a control byte or a non-ASCII byte is its bytes,
// which is what encoding/json makes of it. A body with any other string
// is reported false, like every body of another shape and every body
// encoding/json rejects, and the Decoder decodes it whole.
func scanIngest(b []byte) ([]string, bool) {
	const key = `"statements"`
	i := skipSpace(b, 0)
	if !at(b, i, '{') {
		return nil, false
	}
	i = skipSpace(b, i+1)
	if !bytes.HasPrefix(b[i:], []byte(key)) {
		return nil, false
	}
	i = skipSpace(b, i+len(key))
	if !at(b, i, ':') {
		return nil, false
	}
	i = skipSpace(b, i+1)
	if !at(b, i, '[') {
		return nil, false
	}
	i = skipSpace(b, i+1)
	var stmts []string
	if at(b, i, ']') {
		i++
	} else {
		for {
			if !at(b, i, '"') {
				return nil, false
			}
			s, end, ok := scanString(b, i+1)
			if !ok {
				return nil, false
			}
			stmts = append(stmts, s)
			i = skipSpace(b, end)
			if at(b, i, ',') {
				i = skipSpace(b, i+1)
				continue
			}
			if !at(b, i, ']') {
				return nil, false
			}
			i++
			break
		}
	}
	if i = skipSpace(b, i); !at(b, i, '}') || skipSpace(b, i+1) < len(b) {
		return nil, false
	}
	return stmts, true
}

// scanString returns the JSON string whose opening quote precedes b[s]
// and the index after its closing quote when the string is plain: no
// escape, no control byte and no byte above 0x7f.
func scanString(b []byte, s int) (string, int, bool) {
	q := bytes.IndexByte(b[s:], '"')
	if q < 0 || !plain(b[s:s+q]) {
		return "", 0, false
	}
	return string(b[s : s+q]), s + q + 1, true
}

// plain reports whether r holds no backslash, no byte below 0x20 and no
// byte above 0x7f.
func plain(r []byte) bool {
	for _, c := range r {
		if c < 0x20 || c == '\\' || c > 0x7f {
			return false
		}
	}
	return true
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// at reports whether b[i] is c.
func at(b []byte, i int, c byte) bool { return i < len(b) && b[i] == c }
