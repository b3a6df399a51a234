package multihost

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestManifestRoundTrip pins the bytes WriteManifest writes, field order and
// indentation included, and checks that ManifestDirs resolves each host's
// directory beside the manifest.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := &Manifest{Workload: "w", Actors: 1, Steps: 200, Seed: 42, Hosts: []ManifestHost{
		{Host: "learner", Dir: "learner", Events: 7, SkewNS: 0},
		{Host: "actor00", Dir: "actor00", Events: 5, SkewNS: -3},
	}}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.json")
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
  "workload": "w",
  "actors": 1,
  "steps": 200,
  "seed": 42,
  "hosts": [
    {
      "host": "learner",
      "dir": "learner",
      "events": 7,
      "skew_ns": 0
    },
    {
      "host": "actor00",
      "dir": "actor00",
      "events": 5,
      "skew_ns": -3
    }
  ]
}
`
	if string(got) != want {
		t.Errorf("manifest.json:\n%s\nwant:\n%s", got, want)
	}
	dirs, err := ManifestDirs(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{filepath.Join(dir, "learner"), filepath.Join(dir, "actor00")}; !slices.Equal(dirs, want) {
		t.Errorf("ManifestDirs = %v, want %v", dirs, want)
	}
}

// TestManifestDirsRejects checks ManifestDirs' errors: a file that is not
// JSON, and a host entry without a directory.
func TestManifestDirsRejects(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"not JSON": "{",
		"no dir":   `{"hosts": [{"host": "learner", "dir": "learner"}, {"host": "actor00"}]}`,
	} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-"))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ManifestDirs(path); err == nil {
			t.Errorf("%s: ManifestDirs accepted %q", name, body)
		}
	}
}
