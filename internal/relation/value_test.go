package relation

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestIntRoundTrip(t *testing.T) {
	for _, n := range []int64{0, 1, 42, 1 << 40} {
		v := Int(n)
		if v.IsString() {
			t.Errorf("Int(%d) classified as string", n)
		}
		if got := v.Text(); got != fmt.Sprint(n) {
			t.Errorf("Int(%d).Text() = %q", n, got)
		}
	}
}

func TestIntPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int(-1) did not panic")
		}
	}()
	Int(-1)
}

func TestStringInterning(t *testing.T) {
	a := String("bad")
	b := String("bad")
	c := String("good")
	if a != b {
		t.Errorf("same string interned twice: %d vs %d", a, b)
	}
	if a == c {
		t.Errorf("distinct strings share handle %d", a)
	}
	if !a.IsString() {
		t.Error("interned string not classified as string")
	}
	if a.Text() != "bad" || c.Text() != "good" {
		t.Errorf("Text round trip failed: %q %q", a.Text(), c.Text())
	}
}

func TestStringDistinctFromIntText(t *testing.T) {
	// The string "7" and the integer 7 are distinct domain values here;
	// ParseValue resolves bare decimal text to the integer.
	s := String("7")
	i := Int(7)
	if s == i {
		t.Error(`String("7") == Int(7)`)
	}
	if ParseValue("7") != i {
		t.Error(`ParseValue("7") != Int(7)`)
	}
}

func TestIntSigned(t *testing.T) {
	if IntSigned(5) != Int(5) {
		t.Error("IntSigned(5) != Int(5)")
	}
	v := IntSigned(-12)
	if !v.IsString() || v.Text() != "-12" {
		t.Errorf("IntSigned(-12) = %v (%q)", v, v.Text())
	}
}

func TestParseValue(t *testing.T) {
	cases := []struct {
		in       string
		isString bool
	}{
		{"0", false},
		{"123456789", false},
		{"-3", true},
		{"bad", true},
		{"3.5", true},
		{"", true},
	}
	for _, c := range cases {
		v := ParseValue(c.in)
		if v.IsString() != c.isString {
			t.Errorf("ParseValue(%q).IsString() = %v, want %v", c.in, v.IsString(), c.isString)
		}
		if v.Text() != c.in {
			t.Errorf("ParseValue(%q).Text() = %q", c.in, v.Text())
		}
	}
}

func TestInternConcurrency(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	results := make([][]Value, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals := make([]Value, 100)
			for i := range vals {
				vals[i] = String(fmt.Sprintf("conc-%d", i))
			}
			results[w] = vals
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d got different handle for conc-%d", w, i)
			}
		}
	}
}

func TestQuickParseValueTextRoundTrip(t *testing.T) {
	f := func(s string) bool {
		// Tab and newline are TSV delimiters and excluded from the domain.
		for _, r := range s {
			if r == '\t' || r == '\n' {
				return true
			}
		}
		return ParseValue(s).Text() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntIdentity(t *testing.T) {
	f := func(n uint32) bool {
		return Int(int64(n)) == ParseValue(fmt.Sprint(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestInternManyStrings interns enough strings to grow the index many
// times: every handle is new, round-trips its text, and comes back on a
// second call.
func TestInternManyStrings(t *testing.T) {
	const n = 20000
	first := make([]Value, n)
	for i := range first {
		first[i] = String(fmt.Sprintf("many-%d", i))
	}
	seen := make(map[Value]bool, n)
	for i, v := range first {
		if !v.IsString() || seen[v] {
			t.Fatalf("many-%d: handle %d is not a new string handle", i, v)
		}
		seen[v] = true
		if got := v.Text(); got != fmt.Sprintf("many-%d", i) {
			t.Fatalf("handle %d reads %q, want many-%d", v, got, i)
		}
		if again := String(fmt.Sprintf("many-%d", i)); again != v {
			t.Fatalf("many-%d interned twice: %d vs %d", i, v, again)
		}
	}
}

// TestInternEntryBytes: a process that keeps interning new strings
// keeps what each entry costs the table, over the text itself: a string
// header in byValue plus 5–11 bytes of index, where a map[string]Value
// added 29–57 more.
func TestInternEntryBytes(t *testing.T) {
	const n = 100000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("entry-%05d", i)
	}
	before := liveHeap()
	for _, k := range keys {
		String(k)
	}
	per := float64(liveHeap()-before) / n
	runtime.KeepAlive(keys)
	if per > 40 {
		t.Errorf("interning a new string costs the table %.1f bytes, want at most 40", per)
	}
}

func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
