package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestClientReadsBodies covers both ways a body arrives. One that
// declares its length is read into a buffer of that size, and one that
// ends before it is io.ErrUnexpectedEOF, never a short artifact; a
// declared length over maxPresizeBytes is not allocated before its
// bytes arrive. A chunked body, which declares none, is read whole.
func TestClientReadsBodies(t *testing.T) {
	payload := bytes.Repeat([]byte("roborebound "), 8192) // 96 KiB: many chunks
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j/artifacts/chunked", func(w http.ResponseWriter, r *http.Request) {
		for rest := payload; len(rest) > 0; {
			n := min(len(rest), 1000)
			w.Write(rest[:n])
			w.(http.Flusher).Flush()
			rest = rest[n:]
		}
	})
	// truncated declares a length, sends 10 bytes of it and hangs up.
	truncated := func(declared int64) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			conn, rw, err := http.NewResponseController(w).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			defer conn.Close()
			fmt.Fprintf(rw, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", declared, payload[:10])
			rw.Flush()
		}
	}
	mux.Handle("GET /v1/jobs/j/artifacts/short", truncated(100))
	mux.Handle("GET /v1/jobs/j/artifacts/hostile", truncated(maxPresizeBytes+1))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	client := &Client{Base: ts.URL}
	ctx := context.Background()

	resp, err := http.Get(ts.URL + "/v1/jobs/j/artifacts/chunked")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.ContentLength != -1 || len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("the chunked fixture declares Content-Length %d, Transfer-Encoding %q", resp.ContentLength, resp.TransferEncoding)
	}
	if got, err := client.Artifact(ctx, "j", "chunked"); err != nil || !bytes.Equal(got, payload) {
		t.Errorf("chunked body: %d of %d bytes, %v", len(got), len(payload), err)
	}

	if got, err := client.Artifact(ctx, "j", "short"); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a body 90 bytes short of its Content-Length: %d bytes, %v; want io.ErrUnexpectedEOF", len(got), err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = client.Artifact(ctx, "j", "hostile")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a body short of a %d-byte Content-Length: %v; want io.ErrUnexpectedEOF", maxPresizeBytes+1, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("a declared length of %d B allocated %d B for a 10-byte body", maxPresizeBytes+1, alloc)
	}
}
