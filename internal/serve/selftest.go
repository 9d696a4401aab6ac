package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
)

// selftestRequests builds one small request per job kind, in Kinds()
// order. The resume kinds reference the snapshot job's artifact, so
// the snapshot job must run first — Kinds() already orders it before
// them.
func selftestRequests() map[string]*JobRequest {
	base := func(kind string) *JobRequest {
		return &JobRequest{Version: RequestVersion, Kind: kind}
	}
	reqs := map[string]*JobRequest{}

	chaos := base(KindChaos)
	chaos.N, chaos.DurationSec, chaos.Seed, chaos.Events = 4, 4, 7, true
	reqs[KindChaos] = chaos

	trace := base(KindTrace)
	trace.N, trace.DurationSec, trace.Seed, trace.Perfetto = 3, 3, 7, true
	reqs[KindTrace] = trace

	fig6 := base(KindFig6)
	fig6.N, fig6.DurationSec, fig6.Seed = 6, 4, 7
	fig6.Fmaxes, fig6.PeriodsSec = []int{1}, []float64{2}
	reqs[KindFig6] = fig6

	density := base(KindFig7Density)
	density.Sizes, density.Spacings, density.DurationSec, density.Seed = []int{4}, []float64{8}, 4, 7
	reqs[KindFig7Density] = density

	scale7 := base(KindFig7Scale)
	scale7.Sizes, scale7.DurationSec, scale7.Seed = []int{4}, 4, 7
	reqs[KindFig7Scale] = scale7

	scale := base(KindScale)
	scale.Sizes, scale.DurationSec, scale.Seed = []int{12}, 4, 7
	reqs[KindScale] = scale

	snap := base(KindSnapshot)
	snap.N, snap.DurationSec, snap.Seed, snap.SnapshotAtTick = 4, 4, 7, 8
	reqs[KindSnapshot] = snap

	// Filled in with the snapshot job's handle at run time.
	reqs[KindResume] = base(KindResume)
	reqs[KindResumeVerif] = base(KindResumeVerif)
	return reqs
}

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
	reqs := selftestRequests()

	// The direct side resolves resume handles to the same snapshot
	// bytes the server stored, fetched back over HTTP — so both sides
	// resume from identical input.
	snapshots := map[ResumeRef][]byte{}
	resolve := func(ref ResumeRef) ([]byte, error) {
		if data, ok := snapshots[ref]; ok {
			return data, nil
		}
		return nil, fmt.Errorf("serve: selftest has no snapshot for %v", ref)
	}

	for _, kind := range Kinds() {
		req := reqs[kind]
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
			chunked, err := client.ArtifactChunked(ctx, st.ID, got.Name, 0)
			if err != nil {
				return fmt.Errorf("selftest %s: chunked fetch %s: %w", kind, got.Name, err)
			}
			if !bytes.Equal(chunked, want.Data) {
				return fmt.Errorf("selftest %s: chunked reassembly of %s differs", kind, got.Name)
			}
		}

		if kind == KindSnapshot {
			// Wire the resume kinds to the snapshot this job captured.
			ref := ResumeRef{Job: st.ID, Artifact: "snapshot.rbsn"}
			data, err := client.Artifact(ctx, st.ID, "snapshot.rbsn")
			if err != nil {
				return fmt.Errorf("selftest: fetch snapshot artifact: %w", err)
			}
			snapshots[ref] = data
			reqs[KindResume].Resume = &ref
			reqs[KindResumeVerif].Resume = &ref
		}
		fmt.Fprintf(w, "selftest %-13s ok (%d artifacts, %d result bytes)\n",
			kind, len(st.Artifacts), len(direct.Result))
	}
	fmt.Fprintln(w, "selftest: HTTP and direct facade outputs are byte-identical across all kinds")
	return nil
}
