package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
)

// RunSelftest exercises the full serving stack end to end: it starts
// a real server on a loopback listener, submits one job per kind over
// HTTP, and byte-compares every result document and artifact against
// RunJobDirect on the same request. Progress goes to w; a non-nil
// error means the HTTP path and the facade disagreed somewhere.
func RunSelftest(w io.Writer) error {
	srv, err := NewServer(ServerOptions{Workers: 2})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("serve: selftest listener: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()

	client := &Client{Base: "http://" + ln.Addr().String(), Tenant: "selftest"}
	ctx := context.Background()

	// The snapshot job's artifact, once it has run. The direct side
	// resolves resume handles to the same bytes the server stored,
	// fetched back over HTTP — so both sides resume from identical
	// input.
	var snapshot *ResumeRef
	var snapshotData []byte
	resolve := func(ref ResumeRef) ([]byte, error) {
		if snapshot == nil || ref != *snapshot {
			return nil, fmt.Errorf("serve: selftest has no snapshot for %v", ref)
		}
		return snapshotData, nil
	}

	for i := range jobKinds {
		k := &jobKinds[i]
		kind, req := k.name, k.selftestRequest()
		if k.takesField("resume") {
			req.Resume = snapshot
		}
		st, err := client.Run(ctx, req)
		if err != nil {
			return fmt.Errorf("selftest %s: %w", kind, err)
		}
		if st.State != StateDone {
			return fmt.Errorf("selftest %s: job ended %q (%s)", kind, st.State, st.Error)
		}

		direct, err := RunJobDirect(req, resolve)
		if err != nil {
			return fmt.Errorf("selftest %s: direct run: %w", kind, err)
		}
		if !bytes.Equal([]byte(st.Result), direct.Result) {
			return fmt.Errorf("selftest %s: HTTP result differs from direct facade result", kind)
		}
		if len(st.Artifacts) != len(direct.Artifacts) {
			return fmt.Errorf("selftest %s: %d artifacts over HTTP, %d direct",
				kind, len(st.Artifacts), len(direct.Artifacts))
		}
		for i, want := range direct.Artifacts {
			got := st.Artifacts[i]
			if got.Name != want.Name {
				return fmt.Errorf("selftest %s: artifact %d is %q, want %q", kind, i, got.Name, want.Name)
			}
			data, err := client.Artifact(ctx, st.ID, got.Name)
			if err != nil {
				return fmt.Errorf("selftest %s: fetch %s: %w", kind, got.Name, err)
			}
			if !bytes.Equal(data, want.Data) {
				return fmt.Errorf("selftest %s: artifact %s differs between HTTP and direct", kind, got.Name)
			}
			if got.Name == snapshotArtifact {
				// Wire the resume kinds to the snapshot this job captured.
				snapshot, snapshotData = &ResumeRef{Job: st.ID, Artifact: got.Name}, data
			}
		}
		fmt.Fprintf(w, "selftest %-13s ok (%d artifacts, %d result bytes)\n",
			kind, len(st.Artifacts), len(direct.Result))
	}
	fmt.Fprintln(w, "selftest: HTTP and direct facade outputs are byte-identical across all kinds")
	return nil
}
