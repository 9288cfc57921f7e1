package id

import (
	"testing"
	"testing/quick"
)

func TestDigit(t *testing.T) {
	tests := []struct {
		name string
		id   ID
		i, b int
		want int
	}{
		{"msb digit b=4", ID(0xF000000000000000), 0, 4, 0xF},
		{"second digit b=4", ID(0x0A00000000000000), 1, 4, 0xA},
		{"last digit b=4", ID(0x0000000000000007), 15, 4, 7},
		{"msb digit b=1", ID(1) << 63, 0, 1, 1},
		{"lsb digit b=1", ID(1), 63, 1, 1},
		{"zero id", ID(0), 5, 4, 0},
		{"beyond width", ID(0xFFFFFFFFFFFFFFFF), 16, 4, 0},
		{"b=2 digit", ID(0b11_10_01_00) << 56, 1, 2, 0b10},
		{"b=8 digit", ID(0x00AB000000000000), 1, 8, 0xAB},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.id.Digit(tt.i, tt.b); got != tt.want {
				t.Errorf("Digit(%d, %d) of %s = %#x, want %#x", tt.i, tt.b, tt.id, got, tt.want)
			}
		})
	}
}

func TestDigitReconstructsID(t *testing.T) {
	// Property: concatenating all digits reproduces the ID, for every digit width.
	for _, b := range []int{1, 2, 4, 8, 16} {
		b := b
		f := func(v uint64) bool {
			var rebuilt uint64
			for i := 0; i < NumDigits(b); i++ {
				rebuilt = rebuilt<<uint(b) | uint64(ID(v).Digit(i, b))
			}
			return rebuilt == v
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("b=%d: %v", b, err)
		}
	}
}

func TestCommonPrefixLen(t *testing.T) {
	tests := []struct {
		name string
		a, c ID
		b    int
		want int
	}{
		{"identical", 0x1234, 0x1234, 4, 16},
		{"differ at msb", 0x8000000000000000, 0, 4, 0},
		{"one common digit", 0xAB00000000000000, 0xA000000000000000, 4, 1},
		{"bit granularity ignored", 0xA800000000000000, 0xA000000000000000, 4, 1},
		{"b=1 counts bits", 0xA800000000000000, 0xA000000000000000, 1, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CommonPrefixLen(tt.a, tt.c, tt.b); got != tt.want {
				t.Errorf("CommonPrefixLen(%s, %s, %d) = %d, want %d", tt.a, tt.c, tt.b, got, tt.want)
			}
		})
	}
}

func TestCommonPrefixLenMatchesDigits(t *testing.T) {
	// Property: CommonPrefixLen equals the number of leading equal digits.
	for _, b := range []int{1, 2, 4, 8} {
		b := b
		f := func(x, y uint64) bool {
			a, c := ID(x), ID(y)
			n := 0
			for n < NumDigits(b) && a.Digit(n, b) == c.Digit(n, b) {
				n++
			}
			return CommonPrefixLen(a, c, b) == n
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("b=%d: %v", b, err)
		}
	}
}

func TestRingDistanceSymmetric(t *testing.T) {
	f := func(x, y uint64) bool {
		return RingDistance(ID(x), ID(y)) == RingDistance(ID(y), ID(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingDistanceBound(t *testing.T) {
	f := func(x, y uint64) bool {
		return RingDistance(ID(x), ID(y)) <= 1<<63
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSuccPredComplement(t *testing.T) {
	// Property: for distinct IDs the two directed distances sum to 2^64,
	// i.e. they are exact complements on the ring.
	f := func(x, y uint64) bool {
		if x == y {
			return Succ(ID(x), ID(y)) == 0 && Pred(ID(x), ID(y)) == 0
		}
		return Succ(ID(x), ID(y))+Pred(ID(x), ID(y)) == 0 // wraps to 2^64 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsSuccessorPartition(t *testing.T) {
	// Property: every ID other than the pivot is exactly one of
	// successor-of or predecessor-of the pivot.
	f := func(x, y uint64) bool {
		a, c := ID(x), ID(y)
		if a == c {
			return !IsSuccessor(a, c)
		}
		succ := IsSuccessor(a, c)
		pred := !succ
		_ = pred
		// antisymmetry except at the antipode (where both directions tie)
		if Succ(a, c) == Pred(a, c) {
			return succ && IsSuccessor(c, a)
		}
		return succ != IsSuccessor(c, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareRing(t *testing.T) {
	a := ID(100)
	if CompareRing(a, 101, 105) >= 0 {
		t.Error("101 should be closer to 100 than 105")
	}
	if CompareRing(a, 105, 101) <= 0 {
		t.Error("105 should be farther from 100 than 101")
	}
	if CompareRing(a, 99, 101) != 0 {
		t.Error("99 and 101 are equidistant from 100")
	}
	// wraparound: 2^64-1 is at distance 101 from 100
	if CompareRing(a, ID(^uint64(0)), 300) >= 0 {
		t.Error("wraparound distance should beat 300-100")
	}
}

func TestGeneratorUnique(t *testing.T) {
	g := NewGenerator(42)
	seen := make(map[ID]struct{})
	for i := 0; i < 10000; i++ {
		v := g.Next()
		if _, dup := seen[v]; dup {
			t.Fatalf("duplicate id %s at draw %d", v, i)
		}
		seen[v] = struct{}{}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := Unique(100, 7)
	b := Unique(100, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
	c := Unique(100, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical sequences")
	}
}

func TestParseRoundTrip(t *testing.T) {
	f := func(x uint64) bool {
		got, err := Parse(ID(x).String())
		return err == nil && got == ID(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "zz", "10000000000000000", "-1"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestSortAscending(t *testing.T) {
	ids := []ID{5, 1, 9, 3}
	SortAscending(ids)
	want := []ID{1, 3, 5, 9}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("got %v want %v", ids, want)
		}
	}
}
