package main

import (
	"path/filepath"
	"testing"
)

func TestParseProcIO(t *testing.T) {
	data := []byte("rchar: 100\nwchar: 2000\nsyscr: 3\nsyscw: 40\nread_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n")
	got, err := parseProcIO(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := (procIO{rchar: 100, wchar: 2000, syscr: 3, syscw: 40}); got != want {
		t.Errorf("parseProcIO = %+v, want %+v", got, want)
	}
	later := procIO{rchar: 150, wchar: 2600, syscr: 5, syscw: 50}
	if d := later.sub(got); d != (procIO{50, 600, 2, 10}) {
		t.Errorf("delta = %+v", d)
	}
}

func TestParseProcIORejectsWhatItCannotTrust(t *testing.T) {
	for name, data := range map[string]string{
		"empty":          "",
		"counter hidden": "rchar: 1\nwchar: 2\nsyscr: 3\n",
		"not a number":   "rchar: 1\nwchar: 2\nsyscr: 3\nsyscw: lots\n",
	} {
		if io, err := parseProcIO([]byte(data)); err == nil {
			t.Errorf("%s: parsed as %+v, want an error", name, io)
		}
	}
}

func TestReadProcIOUnreadable(t *testing.T) {
	if _, err := readProcIO(filepath.Join(t.TempDir(), "no-such-io")); err == nil {
		t.Error("reading a missing file succeeded")
	}
}
