package transport

import "io"

// The wire tests and fuzzers frame one message at a time, each in a
// fresh buffer; a connection reuses the one it owns.

func writeRequest(w io.Writer, req wireRequest) error { return new(reqFrame).write(w, req) }

func readRequest(r io.Reader) (wireRequest, error) { return new(reqFrame).read(r) }

func writeResponse(w io.Writer, id uint32, status byte, payload []byte) error {
	return (&connWriter{conn: w}).writeResponse(id, status, payload)
}

func readResponse(r io.Reader) (id uint32, status byte, payload []byte, err error) {
	return new(respHeader).read(r)
}
