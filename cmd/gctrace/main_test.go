package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tilgc/internal/adapt"
)

// TestMain runs gctrace's main instead of the tests when the test binary
// is started by gctrace (below), so a test can run the whole command.
func TestMain(m *testing.M) {
	if os.Getenv("GCTRACE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// gctrace runs the gctrace command with args and returns its exit
// status, stdout and stderr.
func gctrace(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GCTRACE_RUN_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// writeFile writes content to a file in a test directory and returns its
// path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStoreSummary: store prints one line per profile and one per site,
// with the survival share and the pretenured sites starred.
func TestStoreSummary(t *testing.T) {
	var b bytes.Buffer
	store := &adapt.Store{Profiles: []*adapt.RunProfile{{
		Label: "Nqueen/generational", Workload: "Nqueen",
		Sites: []adapt.SiteSeed{
			{Site: 800, Name: "trail cons", SurvWords: 10, DeadWords: 990},
			{Site: 801, Name: "board", SurvWords: 90, DeadWords: 10, PretPlaced: 4, PretDied: 1, Pretenured: true},
		},
	}}}
	if err := store.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, "s.jsonl", b.String())

	code, stdout, stderr := gctrace(t, "store", path)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, stderr)
	}
	want := path + `: 1 profiles

Nqueen/generational (workload Nqueen): 2 sites, 1 pretenured
    site 800    trail cons               surv   1.0%  words 10/1000  placed/died 0/0
  * site 801    board                    surv  90.0%  words 90/100  placed/died 4/1
`
	if stdout != want {
		t.Errorf("store summary:\n%s\nwant:\n%s", stdout, want)
	}
}

// TestStoreRejectsBadFiles: a malformed store and one of another schema
// exit 1 with the store reader's error on stderr.
func TestStoreRejectsBadFiles(t *testing.T) {
	for _, tc := range []struct {
		name, content, want string
	}{
		{"malformed", "{\"t\":\"header\",\n", "adapt: store: line 1"},
		{"schema", `{"t":"header","schema":9,"profiles":0}` + "\n", "schema 9, this build reads schema 1"},
	} {
		path := writeFile(t, tc.name+".jsonl", tc.content)
		code, _, stderr := gctrace(t, "store", path)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1", tc.name, code)
		}
		if !strings.HasPrefix(stderr, "gctrace: "+path+": ") || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: stderr %q, want the reader's error naming %q", tc.name, stderr, tc.want)
		}
	}
}
