package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Client is a minimal typed client for the serve API, used by the
// differential tests and the benchmark.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// Tenant is sent as the tenant header ("" means the server-side
	// default tenant).
	Tenant string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
}

// StatusError is a non-2xx API response. RetryAfterSec is parsed from
// the Retry-After header when present (backpressure and drain
// responses carry it).
type StatusError struct {
	Code          int
	RetryAfterSec int
	Message       string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.Code, e.Message)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	if c.Tenant != "" {
		req.Header.Set(TenantHeader, c.Tenant)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var doc errorDoc
		if json.Unmarshal(msg, &doc) == nil && doc.Error != "" {
			msg = []byte(doc.Error)
		}
		retry, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return nil, &StatusError{Code: resp.StatusCode, RetryAfterSec: retry, Message: string(msg)}
	}
	return resp, nil
}

// maxPresizeBytes bounds the buffer a response's declared length may
// allocate before its bytes arrive. A longer declaration, hostile or
// not, is read with io.ReadAll, which grows only with what arrives.
const maxPresizeBytes = 64 << 20

// readBody reads resp's whole body and closes it. A body that declares
// its length is read into one buffer of that size, and one that ends
// short of it is io.ErrUnexpectedEOF. A body without a length (gzip the
// transport decodes, or chunked) goes through io.ReadAll.
func readBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	n := resp.ContentLength
	if n < 0 || n > maxPresizeBytes {
		return io.ReadAll(resp.Body)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		if err == io.EOF { // ReadFull's word for "none of the n > 0 bytes"
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return data, nil
}

// decodeBody reads resp's body and unmarshals it into v.
func decodeBody(resp *http.Response, v any) error {
	data, err := readBody(resp)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return decodeBody(resp, v)
}

// Submit posts a job and returns its accepted status document.
func (c *Client) Submit(ctx context.Context, req *JobRequest) (Status, error) {
	body, err := req.Encode()
	if err != nil {
		return Status{}, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return Status{}, err
	}
	var st Status
	err = decodeBody(resp, &st)
	return st, err
}

// Status fetches a job's current status document.
func (c *Client) Status(ctx context.Context, id string) (Status, error) {
	var st Status
	err := c.getJSON(ctx, "/v1/jobs/"+id, &st)
	return st, err
}

// Cancel cancels a job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Wait blocks until the job reaches a terminal state and returns the
// final status document, in one long-polled GET /v1/jobs/{id}?wait=1.
func (c *Client) Wait(ctx context.Context, id string) (Status, error) {
	var st Status
	if err := c.getJSON(ctx, "/v1/jobs/"+id+"?wait=1", &st); err != nil {
		return Status{}, err
	}
	if !st.State.Terminal() {
		return st, fmt.Errorf("serve: waited on job %s but it is %q: the server did not honour ?wait=1", id, st.State)
	}
	return st, nil
}

// Run submits a request and waits for its terminal status.
func (c *Client) Run(ctx context.Context, req *JobRequest) (Status, error) {
	st, err := c.Submit(ctx, req)
	if err != nil {
		return Status{}, err
	}
	return c.Wait(ctx, st.ID)
}

// Artifact fetches one artifact's raw bytes (the transport handles
// gzip transparently).
func (c *Client) Artifact(ctx context.Context, id, name string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/artifacts/"+name, nil)
	if err != nil {
		return nil, err
	}
	return readBody(resp)
}

// Artifacts lists a job's artifacts.
func (c *Client) Artifacts(ctx context.Context, id string) ([]ArtifactInfo, error) {
	var out []ArtifactInfo
	err := c.getJSON(ctx, "/v1/jobs/"+id+"/artifacts", &out)
	return out, err
}

// MetricsJSON fetches the server's metrics export verbatim.
func (c *Client) MetricsJSON(ctx context.Context) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	return readBody(resp)
}
