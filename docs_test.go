package pacman_test

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pacman"
)

// TestDocsKnobTable is the drift check for docs/ARCHITECTURE.md's
// configuration-knob table: every exported field of the four public config
// structs must have a row, a live row must name a field that exists, and a
// row marked deleted must name one that does not. Rows for internal structs
// may only record deletions.
func TestDocsKnobTable(t *testing.T) {
	b, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	structs := map[string]reflect.Type{
		"Options":        reflect.TypeOf(pacman.Options{}),
		"RecoverConfig":  reflect.TypeOf(pacman.RecoverConfig{}),
		"FrontendConfig": reflect.TypeOf(pacman.FrontendConfig{}),
		"HealthConfig":   reflect.TypeOf(pacman.HealthConfig{}),
	}
	// | `Struct.Field` | default | set by |
	row := regexp.MustCompile("(?m)^\\| `([A-Za-z.]+)\\.([A-Za-z0-9_]+)` \\|[^|]*\\|([^|]*)\\|$")
	rows := row.FindAllStringSubmatch(string(b), -1)
	if len(rows) == 0 {
		t.Fatal("no knob rows found in docs/ARCHITECTURE.md — the table moved or changed shape without updating this test")
	}
	documented := make(map[string]bool)
	for _, m := range rows {
		name, field := m[1], m[2]
		deleted := strings.HasPrefix(strings.TrimSpace(m[3]), "deleted")
		st, public := structs[name]
		switch {
		case !public && !deleted:
			t.Errorf("row %s.%s: only the public config structs have live rows", name, field)
		case !public:
		case deleted:
			if _, ok := st.FieldByName(field); ok {
				t.Errorf("row %s.%s is marked deleted, but the field exists", name, field)
			}
		default:
			if _, ok := st.FieldByName(field); !ok {
				t.Errorf("row %s.%s names a field that does not exist", name, field)
			}
			documented[name+"."+field] = true
		}
	}
	for name, st := range structs {
		for i := 0; i < st.NumField(); i++ {
			if f := st.Field(i); f.IsExported() && !documented[name+"."+f.Name] {
				t.Errorf("%s.%s has no row in docs/ARCHITECTURE.md's knob table", name, f.Name)
			}
		}
	}
}

// TestDocsLinks walks the user-facing markdown (README, ROADMAP, docs/)
// and verifies every relative link target exists, so renames and moved
// files fail the build instead of quietly rotting the docs. External
// links (http/https/mailto), pure anchors, and repo-external paths (the
// CI badge's ../../actions/... form) are out of scope.
func TestDocsLinks(t *testing.T) {
	files := []string{"README.md", "ROADMAP.md"}
	entries, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, entries...)
	if len(entries) == 0 {
		t.Fatal("docs/*.md matched nothing — the docs moved without updating this test")
	}

	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	// Inline markdown links, excluding images; code spans are stripped
	// first so example snippets cannot produce false positives.
	link := regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	codeSpan := regexp.MustCompile("`[^`]*`")

	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		text := string(b)
		// Drop fenced code blocks: they hold shell/Go samples, not links.
		var kept []string
		inFence := false
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if !inFence {
				kept = append(kept, codeSpan.ReplaceAllString(line, ""))
			}
		}
		for _, m := range link.FindAllStringSubmatch(strings.Join(kept, "\n"), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			resolved := filepath.Join(filepath.Dir(f), target)
			abs, err := filepath.Abs(resolved)
			if err != nil || !strings.HasPrefix(abs, root+string(filepath.Separator)) {
				continue // points outside the repo (e.g. GitHub UI paths)
			}
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q (resolved %s)", f, m[1], resolved)
			}
		}
	}
}
