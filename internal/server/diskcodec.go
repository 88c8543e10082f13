package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"pipesched"
	"pipesched/internal/ir"
	"pipesched/internal/regalloc"
)

// The disk tier's payload codec: a versioned binary encoding of one
// cacheable *pipesched.Compiled.
//
//	payload  = "PSCC" version(1 byte) compiled
//	compiled = Source Original Scheduled Order Eta Pipes TotalNOPs
//	           InitialNOPs Ticks Optimal Sched.{Kind K Window Width}
//	           MaxLive IssueTicks RootLB Gap Quality Registers Assembly
//	           Stats.{13 counters} Stats.Curtailed Stats.Elapsed
//	block    = present(0|1) [Label len(Tuples) {ID Op A B}...]
//	operand  = Kind Var Ref Imm
//	regs     = present(0|1) [0 for a nil RegOf, else len(RegOf)+1
//	           followed by {key value} in ascending key order;
//	           NumRegs MaxLive]
//
// Integers are zigzag varints, lengths and flags unsigned varints,
// strings a length then bytes, and int slices a length then elements
// (an empty slice decodes to nil). Encoding is deterministic: the only
// map, RegOf, is written in key order. The decoder accepts exactly the
// bytes the encoder writes (minimal varints, flags 0 or 1, integers
// within their field's type, keys strictly ascending, no trailing
// bytes), bounds every length by the bytes left, and never panics;
// anything else is an error, which the tier treats as a miss and
// drops. Results carrying Faults are refused: they are never
// cacheable, and their errors and panic values have no encoding.
//
// A change to any encoded type must change this codec and bump
// diskVersion, so entries written by an older build read as misses
// rather than as plausible-looking wrong results.
// TestDiskCodecCoversEveryField fails until it does.
const (
	diskMagic   = "PSCC"
	diskVersion = 1
)

var (
	errDiskFormat = errors.New("disk entry: malformed payload")
	errDiskFaults = errors.New("disk entry: result carries faults")
)

// encodeCompiled renders x as a disk-tier payload.
func encodeCompiled(x *pipesched.Compiled) ([]byte, error) {
	if len(x.Faults) > 0 {
		return nil, errDiskFaults
	}
	c := codec{enc: true, buf: make([]byte, 0, 512+len(x.Assembly)+len(x.Source))}
	c.buf = append(append(c.buf, diskMagic...), diskVersion)
	c.compiled(x)
	return c.buf, nil
}

// decodeCompiled parses a payload written by encodeCompiled.
func decodeCompiled(payload []byte) (*pipesched.Compiled, error) {
	if len(payload) < len(diskMagic)+1 || string(payload[:len(diskMagic)]) != diskMagic {
		return nil, fmt.Errorf("%w: bad magic", errDiskFormat)
	}
	if v := payload[len(diskMagic)]; v != diskVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", errDiskFormat, v, diskVersion)
	}
	// One string conversion backs every decoded string (variable names,
	// source, assembly) as a substring: a single allocation instead of
	// one per string.
	c := codec{s: string(payload[len(diskMagic)+1:])}
	x := &pipesched.Compiled{}
	c.compiled(x)
	if c.err == nil && len(c.s) != 0 {
		c.fail("trailing bytes")
	}
	if c.err != nil {
		return nil, c.err
	}
	return x, nil
}

// codec walks a Compiled field by field, appending each field to buf
// when enc is set and otherwise reading it back from s into the field.
// One walk serves both directions, so the two cannot disagree on the
// layout. Encoding only reads the value: a cached result is shared.
// Decoding records the first error in err and reads zeros after it.
type codec struct {
	enc bool
	buf []byte
	s   string
	err error
}

func (c *codec) compiled(x *pipesched.Compiled) {
	c.str(&x.Source)
	c.block(&x.Original)
	c.block(&x.Scheduled)
	c.ints(&x.Order)
	c.ints(&x.Eta)
	c.ints(&x.Pipes)
	num(c, &x.TotalNOPs)
	num(c, &x.InitialNOPs)
	num(c, &x.Ticks)
	c.bool(&x.Optimal)
	num(c, &x.Sched.Kind)
	num(c, &x.Sched.K)
	num(c, &x.Sched.Window)
	num(c, &x.Sched.Width)
	num(c, &x.MaxLive)
	c.ints(&x.IssueTicks)
	num(c, &x.RootLB)
	num(c, &x.Gap)
	num(c, &x.Quality)
	c.regs(&x.Registers)
	c.str(&x.Assembly)
	st := &x.Stats
	for _, p := range []*int64{&st.OmegaCalls, &st.SeedOmegaCalls, &st.SchedulesExamined,
		&st.Improvements, &st.PrunedBounds, &st.PrunedIllegal, &st.PrunedEquivalence,
		&st.PrunedStrongEquiv, &st.PrunedAlphaBeta, &st.PrunedLowerBound,
		&st.PrunedResource, &st.PrunedPressure, &st.MemoHits} {
		num(c, p)
	}
	c.bool(&st.Curtailed)
	num(c, &st.Elapsed)
}

func (c *codec) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", errDiskFormat, what)
	}
	c.s = ""
}

// uvarint writes v, or reads and returns a minimally encoded unsigned
// varint.
func (c *codec) uvarint(v uint64) uint64 {
	if c.enc {
		c.buf = binary.AppendUvarint(c.buf, v)
		return v
	}
	var x uint64
	for i := 0; i < len(c.s) && i < binary.MaxVarintLen64; i++ {
		b := c.s[i]
		if b < 0x80 {
			if i > 0 && b == 0 || i == binary.MaxVarintLen64-1 && b > 1 {
				c.fail("non-minimal or overflowing varint")
				return 0
			}
			c.s = c.s[i+1:]
			return x | uint64(b)<<(7*i)
		}
		x |= uint64(b&0x7f) << (7 * i)
	}
	c.fail("truncated varint")
	return 0
}

// num codes one integer field as a zigzag varint; a decoded value must
// fit the field's type.
func num[T ~int | ~int64 | ~uint8](c *codec, p *T) {
	x := int64(*p)
	u := c.uvarint(uint64(x<<1) ^ uint64(x>>63))
	if c.enc {
		return
	}
	x = int64(u>>1) ^ -int64(u&1)
	if int64(T(x)) != x {
		c.fail("integer out of range")
		return
	}
	*p = T(x)
}

func (c *codec) bool(p *bool) {
	var v uint64
	if *p {
		v = 1
	}
	if v = c.uvarint(v); v > 1 {
		c.fail("flag not 0 or 1")
	}
	if !c.enc {
		*p = v == 1
	}
}

// present codes whether an optional field is set.
func (c *codec) present(set bool) bool {
	c.bool(&set)
	return set
}

// count codes a length; a decoded one is bounded by the bytes left
// (every element takes at least one byte).
func (c *codec) count(n int) int {
	v := c.uvarint(uint64(n))
	if !c.enc && v > uint64(len(c.s)) {
		c.fail("length exceeds payload")
		return 0
	}
	return int(v)
}

func (c *codec) str(p *string) {
	n := c.count(len(*p))
	if c.enc {
		c.buf = append(c.buf, *p...)
		return
	}
	*p, c.s = c.s[:n], c.s[n:]
}

func (c *codec) ints(p *[]int) {
	if n := c.count(len(*p)); !c.enc && n > 0 {
		*p = make([]int, n)
	}
	for i := range *p {
		num(c, &(*p)[i])
	}
}

func (c *codec) block(p **ir.Block) {
	if !c.present(*p != nil) {
		return
	}
	if !c.enc {
		*p = &ir.Block{}
	}
	b := *p
	c.str(&b.Label)
	if n := c.count(len(b.Tuples)); !c.enc && n > 0 {
		b.Tuples = make([]ir.Tuple, n)
	}
	for i := range b.Tuples {
		t := &b.Tuples[i]
		num(c, &t.ID)
		num(c, &t.Op)
		c.operand(&t.A)
		c.operand(&t.B)
	}
}

func (c *codec) operand(o *ir.Operand) {
	num(c, &o.Kind)
	c.str(&o.Var)
	num(c, &o.Ref)
	num(c, &o.Imm)
}

func (c *codec) regs(p **regalloc.Assignment) {
	if !c.present(*p != nil) {
		return
	}
	if !c.enc {
		*p = &regalloc.Assignment{}
	}
	a := *p
	n := 0
	if a.RegOf != nil {
		n = len(a.RegOf) + 1
	}
	if n = c.count(n); n > 0 {
		if c.enc {
			keys := make([]int, 0, n-1)
			for k := range a.RegOf {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			for _, k := range keys {
				v := a.RegOf[k]
				num(c, &k)
				num(c, &v)
			}
		} else {
			a.RegOf = make(map[int]int, n-1)
			for i, prev := 0, 0; i < n-1 && c.err == nil; i++ {
				var k, v int
				num(c, &k)
				num(c, &v)
				if i > 0 && k <= prev {
					c.fail("register keys not ascending")
				}
				a.RegOf[k], prev = v, k
			}
		}
	}
	num(c, &a.NumRegs)
	num(c, &a.MaxLive)
}
