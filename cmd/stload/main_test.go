package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netconn"
)

// TestMain runs the command itself when the test binary is started
// with STLOAD_ARGS set: the way a test can watch stload exit.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("STLOAD_ARGS"); ok {
		os.Args = append([]string{"stload"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFollowStopsOnPermanentRefusal: a follower whose every batch the
// router refuses for good — hil* documents, encoded over the
// follower's data extent, sent to a hil router, whose cells differ —
// exits 1 with the refusal within a second, instead of retrying until
// -duration ends and exiting 0.
func TestFollowStopsOnPermanentRefusal(t *testing.T) {
	store, err := core.Open(core.Config{Approach: core.Hil, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rs := netconn.NewRouterServer(store, netconn.AdmitOptions{})
	addr, err := rs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "STLOAD_ARGS=-follow -router "+addr+
		" -approach hil* -records 500 -workers 2 -batch 8 -duration 20s")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err = cmd.Run()
	elapsed := time.Since(start)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("stload -follow ended with %v after %v, want exit status 1\nstdout: %s\nstderr: %s", err, elapsed, &stdout, &stderr)
	}
	if !strings.Contains(stderr.String(), "refused") || !strings.Contains(stderr.String(), "is not the cell of") {
		t.Fatalf("stderr does not carry the refusal: %s", &stderr)
	}
	if elapsed > time.Second {
		t.Fatalf("stload took %v to give up on a permanent refusal", elapsed)
	}
	t.Logf("exit after %v: %s", elapsed, &stderr)
	if docs, _ := store.Fingerprint(); docs != 0 {
		t.Fatalf("the router stored %d refused documents", docs)
	}
}
