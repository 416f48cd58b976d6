package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed
// with commvetArgs set it runs main itself, so the tests below see the
// real exit codes without building anything.
const commvetArgs = "COMMVET_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(commvetArgs); ok {
		os.Args = append(os.Args[:1], strings.Split(args, "\n")...)
		main()
		return
	}
	os.Exit(m.Run())
}

// commvet runs the command from the module root and returns its exit
// code and stderr.
func commvet(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Dir = filepath.Join("..", "..")
	cmd.Env = append(os.Environ(), commvetArgs+"="+strings.Join(args, "\n"))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

func TestCleanPackageExitsZero(t *testing.T) {
	code, stderr := commvet(t, "./internal/sigfilter")
	if code != 0 || !strings.Contains(stderr, "commvet: 0 finding(s) across 1 package(s), 3 spec file(s)") {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
}

func TestFindingExitsOneAndLandsInJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "commvet.json")
	code, stderr := commvet(t, "-json", out, "./internal/analysis/testdata/padbad")
	if code != 1 || !strings.Contains(stderr, "[padcheck]") {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "commvet/v1" || rep.Packages != 1 || len(rep.Findings) != 1 || rep.Findings[0].Analyzer != "padcheck" {
		t.Fatalf("report = %+v", rep)
	}
}

func TestUnloadablePatternExitsTwo(t *testing.T) {
	if code, stderr := commvet(t, "./no/such/dir"); code != 2 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
}
