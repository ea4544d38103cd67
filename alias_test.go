package liberty_test

// alias_test.go pins how the front ends treat what no longer exists: the
// scheduler names of the deleted engines (levelized, woven, and parallel
// and partitioned, which were aliases of auto for one release), auto
// itself (a second name of the engine), the strict levels that selected
// nothing (info, error) and the "workers" wire field are rejected — by
// the parser, by lsc before anything is built, by /v1 before anything is
// compiled or cached — never aliased, and never a crash.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"liberty/lse"
)

var (
	removedSchedulerNames = []string{"levelized", "woven", "parallel", "partitioned", "auto"}
	removedStrictLevels   = []string{"info", "error"}
)

// buildLSC builds cmd/lsc into the test's temporary directory and returns
// the binary's path.
func buildLSC(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lsc")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/lsc").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/lsc: %v\n%s", err, out)
	}
	return bin
}

func TestRemovedEngineAliases(t *testing.T) {
	const wantMsg, wantStrictMsg = "(want sparse or sequential)", "(want warning)"

	for _, name := range removedSchedulerNames {
		if _, err := lse.ParseSchedulerKind(name); err == nil || !strings.Contains(err.Error(), wantMsg) {
			t.Errorf("ParseSchedulerKind(%q) = %v, want an unknown-scheduler error listing the valid names", name, err)
		}
	}
	for _, name := range []string{"", "sparse"} {
		if kind, err := lse.ParseSchedulerKind(name); err != nil || kind != lse.SchedulerSparse {
			t.Errorf("ParseSchedulerKind(%q) = %v, %v, want the engine", name, kind, err)
		}
	}

	t.Run("lsc", func(t *testing.T) {
		bin := buildLSC(t)
		lsc := func(args ...string) (exit int, output string) {
			t.Helper()
			var out bytes.Buffer
			cmd := exec.Command(bin, append(args, "-cycles", "10", "specs/quickstart.lss")...)
			cmd.Stdout, cmd.Stderr = &out, &out
			err := cmd.Run()
			if ee, ok := err.(*exec.ExitError); ok {
				return ee.ExitCode(), out.String()
			} else if err != nil {
				t.Fatalf("lsc %v: %v", args, err)
			}
			return 0, out.String()
		}
		const built = "constructed simulator"
		for _, name := range removedSchedulerNames {
			exit, out := lsc("-scheduler", name)
			if exit != 1 || !strings.Contains(out, wantMsg) || strings.Contains(out, built) {
				t.Errorf("lsc -scheduler %s: exit %d, want 1 with the valid names listed and nothing built:\n%s", name, exit, out)
			}
		}
		for _, level := range removedStrictLevels {
			exit, out := lsc("-strict", level)
			if exit != 1 || !strings.Contains(out, wantStrictMsg) || strings.Contains(out, built) {
				t.Errorf("lsc -strict %s: exit %d, want 1 with the valid level named and nothing built:\n%s", level, exit, out)
			}
		}
		if exit, out := lsc("-strict", "warning"); exit != 0 || !strings.Contains(out, built) {
			t.Errorf("lsc -strict warning: exit %d, want a built and run simulator:\n%s", exit, out)
		}
		// The flag went with the engines it configured.
		if exit, out := lsc("-workers", "2"); exit == 0 || strings.Contains(out, built) {
			t.Errorf("lsc -workers 2: exit %d, want a flag error and nothing built:\n%s", exit, out)
		}
	})

	t.Run("wire", func(t *testing.T) {
		client := newServeBench(t)
		ctx := context.Background()
		cached := func() int {
			t.Helper()
			resp, err := client.HTTP.Get(client.Base + "/v1/programs")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var list struct {
				Programs []lse.ProgramInfo `json:"programs"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
				t.Fatal(err)
			}
			return len(list.Programs)
		}
		refused := func(what string, opts lse.ProgramBuildOptions, msg string) {
			t.Helper()
			// The spec does not compile: LSD001, not LSD004, shows the
			// value was refused before any compile.
			_, err := client.SubmitProgram(ctx, lse.SubmitProgramRequest{
				Spec: "instance x : no.such.template();", Options: opts,
			})
			var apiErr *lse.ServeError
			if !errorAs(err, &apiErr) || apiErr.Code != lse.ErrorCode("LSD001") || apiErr.Status != http.StatusBadRequest {
				t.Errorf("%s answered %v, want LSD001/400", what, err)
			} else if !strings.Contains(apiErr.Message, msg) {
				t.Errorf("%s: message %q does not list the valid values", what, apiErr.Message)
			}
		}
		for _, name := range removedSchedulerNames {
			refused("scheduler "+name, lse.ProgramBuildOptions{Scheduler: name}, wantMsg)
		}
		for _, level := range removedStrictLevels {
			refused("strict "+level, lse.ProgramBuildOptions{Strict: level}, wantStrictMsg)
		}
		// "workers" is no longer a field: a body carrying it is a client
		// error like any other unknown field, never a 500.
		spec, err := json.Marshal(serveMeshSpec)
		if err != nil {
			t.Fatal(err)
		}
		body := `{"spec": ` + string(spec) + `, "options": {"workers": 4}}`
		resp, err := client.HTTP.Post(client.Base+"/v1/programs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var envelope struct {
			Error lse.ServeError `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			t.Fatalf("workers body: undecodable error envelope: %v", err)
		}
		if resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != lse.ErrorCode("LSD001") {
			t.Errorf(`"workers": 4 answered %d %s, want 400 LSD001`, resp.StatusCode, envelope.Error.Code)
		}
		if n := cached(); n != 0 {
			t.Errorf("rejected submissions left %d program(s) in the cache", n)
		}
		if _, err := client.SubmitProgram(ctx, lse.SubmitProgramRequest{
			Spec: serveMeshSpec, Options: lse.ProgramBuildOptions{Strict: "warning"},
		}); err != nil {
			t.Errorf(`"strict": "warning" answered %v, want the program compiled`, err)
		}
	})

	t.Run("session-switch", func(t *testing.T) {
		prog, err := lse.CompileLSSFile("mesh.lss", serveMeshSpec, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = prog.NewSim(lse.WithScheduler(lse.SchedulerSequential))
		be, ok := err.(*lse.BuildError)
		if !ok || be.Op != "new sim" || be.Where != "program" ||
			!strings.Contains(be.Detail, "sessions cannot select sequential") {
			t.Fatalf("NewSim with another kind = %v, want the sessions-cannot-select BuildError at the program", err)
		}
	})
}
