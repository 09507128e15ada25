package crypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// seal and open return the result of Seal and Open in a fresh block.
func seal(e *Engine, addr, ctr uint64, src []byte) []byte {
	dst := make([]byte, BlockSize)
	e.Seal(dst, addr, ctr, src)
	return dst
}

func open(e *Engine, addr, ctr uint64, src []byte) []byte {
	dst := make([]byte, BlockSize)
	e.Open(dst, addr, ctr, src)
	return dst
}

func TestSealOpenRoundTrip(t *testing.T) {
	e := NewEngine(1)
	pt := make([]byte, BlockSize)
	for i := range pt {
		pt[i] = byte(i * 7)
	}
	ct := seal(e, 0x1000, 42, pt)
	if bytes.Equal(ct, pt) {
		t.Fatal("ciphertext equals plaintext")
	}
	got := open(e, 0x1000, 42, ct)
	if !bytes.Equal(got, pt) {
		t.Fatal("round trip failed")
	}
}

func TestOpenWrongCounterGarbles(t *testing.T) {
	e := NewEngine(1)
	pt := make([]byte, BlockSize)
	ct := seal(e, 0x1000, 42, pt)
	if bytes.Equal(open(e, 0x1000, 43, ct), pt) {
		t.Fatal("wrong counter decrypted correctly")
	}
	if bytes.Equal(open(e, 0x1040, 42, ct), pt) {
		t.Fatal("wrong address decrypted correctly")
	}
}

func TestOTPUniqueness(t *testing.T) {
	e := NewEngine(7)
	seen := map[[BlockSize]byte]string{}
	for addr := uint64(0); addr < 4; addr++ {
		for ctr := uint64(0); ctr < 4; ctr++ {
			p := e.OTP(addr*64, ctr)
			if prev, dup := seen[p]; dup {
				t.Fatalf("OTP collision between (%d,%d) and %s", addr, ctr, prev)
			}
			seen[p] = "earlier pair"
		}
	}
}

func TestOTPDeterministic(t *testing.T) {
	a := NewEngine(9).OTP(0x40, 5)
	b := NewEngine(9).OTP(0x40, 5)
	if a != b {
		t.Fatal("same seed produced different OTPs")
	}
	c := NewEngine(10).OTP(0x40, 5)
	if a == c {
		t.Fatal("different seeds produced identical OTPs")
	}
}

func TestBlockMACDetectsTamper(t *testing.T) {
	e := NewEngine(3)
	ct := make([]byte, BlockSize)
	ct[5] = 0xaa
	m := e.BlockMAC(0x80, 9, ct)
	ct[5] ^= 1
	if Equal(m, e.BlockMAC(0x80, 9, ct)) {
		t.Fatal("single-bit tamper not reflected in MAC")
	}
}

func TestBlockMACBindsAddressAndCounter(t *testing.T) {
	e := NewEngine(3)
	ct := make([]byte, BlockSize)
	m := e.BlockMAC(0x80, 9, ct)
	if Equal(m, e.BlockMAC(0xc0, 9, ct)) {
		t.Fatal("MAC does not bind address (splicing possible)")
	}
	if Equal(m, e.BlockMAC(0x80, 10, ct)) {
		t.Fatal("MAC does not bind counter (replay possible)")
	}
}

func TestNestedMACOrderSensitive(t *testing.T) {
	e := NewEngine(4)
	m1 := MAC{1}
	m2 := MAC{2}
	a := e.NestedMAC([]MAC{m1, m2})
	b := e.NestedMAC([]MAC{m2, m1})
	if Equal(a, b) {
		t.Fatal("nested MAC ignores order")
	}
}

func TestNestedMACSingle(t *testing.T) {
	e := NewEngine(4)
	m := MAC{9, 9}
	a := e.NestedMAC([]MAC{m})
	if Equal(a, m) {
		t.Fatal("nested MAC of one element should still hash")
	}
}

func TestNestedMACEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NestedMAC(nil) did not panic")
		}
	}()
	NewEngine(1).NestedMAC(nil)
}

func TestNodeMACBindsEverything(t *testing.T) {
	e := NewEngine(5)
	ctrs := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	base := e.NodeMAC(0x1000, 77, ctrs)
	if Equal(base, e.NodeMAC(0x1040, 77, ctrs)) {
		t.Fatal("node MAC ignores node address")
	}
	if Equal(base, e.NodeMAC(0x1000, 78, ctrs)) {
		t.Fatal("node MAC ignores parent counter")
	}
	ctrs[3]++
	if Equal(base, e.NodeMAC(0x1000, 77, ctrs)) {
		t.Fatal("node MAC ignores counter payload")
	}
}

func TestSealWrongSizePanics(t *testing.T) {
	for name, size := range map[string][2]int{"source": {BlockSize, 32}, "destination": {32, BlockSize}} {
		dst, src := make([]byte, size[0]), make([]byte, size[1])
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Seal with a short %s did not panic", name)
				}
			}()
			NewEngine(1).Seal(dst, 0, 0, src)
		}()
	}
}

// Property: Seal then Open is identity for any block content, address and
// counter, into a separate block and in place.
func TestSealOpenProperty(t *testing.T) {
	e := NewEngine(11)
	f := func(content [BlockSize]byte, addr, ctr uint64) bool {
		ct := seal(e, addr, ctr, content[:])
		if !bytes.Equal(open(e, addr, ctr, ct), content[:]) {
			return false
		}
		buf := content
		e.Seal(buf[:], addr, ctr, buf[:])
		if !bytes.Equal(buf[:], ct) {
			return false
		}
		e.Open(buf[:], addr, ctr, buf[:])
		return buf == content
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Fatal(err)
	}
}

// Property: MACs over distinct ciphertexts are distinct (no trivial
// collisions at 64-bit truncation for random inputs).
func TestMACDistinguishesProperty(t *testing.T) {
	e := NewEngine(12)
	f := func(a, b [BlockSize]byte) bool {
		ma := e.BlockMAC(0, 0, a[:])
		mb := e.BlockMAC(0, 0, b[:])
		if a == b {
			return Equal(ma, mb)
		}
		return !Equal(ma, mb)
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Fatal(err)
	}
}

// refEngine is the per-call construction the keyed Engine replaced: a
// fresh hmac.New for every MAC and local arrays for headers, counter words
// and pads. Engine must match it byte for byte.
type refEngine struct {
	block  cipher.Block
	macKey [32]byte
}

func newRefEngine(seed uint64) *refEngine {
	var aesKey [16]byte
	binary.LittleEndian.PutUint64(aesKey[0:], seed)
	binary.LittleEndian.PutUint64(aesKey[8:], seed^0x9e3779b97f4a7c15)
	b, err := aes.NewCipher(aesKey[:])
	if err != nil {
		panic(err)
	}
	return &refEngine{block: b, macKey: sha256.Sum256(aesKey[:])}
}

func (r *refEngine) otp(addr, counter uint64) [BlockSize]byte {
	var pad [BlockSize]byte
	var in [16]byte
	binary.LittleEndian.PutUint64(in[0:], addr)
	for i := 0; i < BlockSize/16; i++ {
		binary.LittleEndian.PutUint64(in[8:], counter<<2|uint64(i))
		r.block.Encrypt(pad[i*16:(i+1)*16], in[:])
	}
	return pad
}

func (r *refEngine) blockMAC(addr, counter uint64, ciphertext []byte) MAC {
	h := hmac.New(sha256.New, r.macKey[:])
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], addr)
	binary.LittleEndian.PutUint64(hdr[8:], counter)
	h.Write(hdr[:])
	h.Write(ciphertext)
	var m MAC
	copy(m[:], h.Sum(nil))
	return m
}

func (r *refEngine) nestedMAC(fine []MAC) MAC {
	acc := r.hashMAC(fine[0][:], nil)
	for _, m := range fine[1:] {
		acc = r.hashMAC(acc[:], m[:])
	}
	return acc
}

func (r *refEngine) hashMAC(a, b []byte) MAC {
	h := hmac.New(sha256.New, r.macKey[:])
	h.Write(a)
	h.Write(b)
	var m MAC
	copy(m[:], h.Sum(nil))
	return m
}

func (r *refEngine) nodeMAC(nodeAddr, parentCounter uint64, counters []uint64) MAC {
	h := hmac.New(sha256.New, r.macKey[:])
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], nodeAddr)
	binary.LittleEndian.PutUint64(hdr[8:], parentCounter)
	h.Write(hdr[:])
	var buf [8]byte
	for _, c := range counters {
		binary.LittleEndian.PutUint64(buf[:], c)
		h.Write(buf[:])
	}
	var m MAC
	copy(m[:], h.Sum(nil))
	return m
}

// TestEngineMatchesPerCallReference drives the primitives in a random
// interleaving on one engine against the per-call reference, so a missed
// Reset or a scratch array one primitive leaves for another fails. Node
// lines of up to 12 counters cover the message scratch filling up.
func TestEngineMatchesPerCallReference(t *testing.T) {
	e, ref := NewEngine(21), newRefEngine(21)
	rng := rand.New(rand.NewSource(1))
	var ct [BlockSize]byte
	fine := make([]MAC, 9)
	ctrs := make([]uint64, 12)
	for i := 0; i < 4000; i++ {
		addr, ctr := rng.Uint64(), rng.Uint64()
		rng.Read(ct[:])
		var name string
		var got, want any
		switch rng.Intn(5) {
		case 0:
			name, got, want = "BlockMAC", e.BlockMAC(addr, ctr, ct[:]), ref.blockMAC(addr, ctr, ct[:])
		case 1:
			f := fine[:1+rng.Intn(len(fine))]
			for j := range f {
				rng.Read(f[j][:])
			}
			name, got, want = "NestedMAC", e.NestedMAC(f), ref.nestedMAC(f)
		case 2:
			c := ctrs[:rng.Intn(len(ctrs)+1)]
			for j := range c {
				c[j] = rng.Uint64()
			}
			name, got, want = "NodeMAC", e.NodeMAC(addr, ctr, c), ref.nodeMAC(addr, ctr, c)
		case 3:
			name, got, want = "OTP", e.OTP(addr, ctr), ref.otp(addr, ctr)
		default:
			pad, buf := ref.otp(addr, ctr), ct
			for j := range pad {
				pad[j] ^= ct[j]
			}
			e.Seal(buf[:], addr, ctr, buf[:])
			name, got, want = "Seal", buf, pad
		}
		if got != want {
			t.Fatalf("call %d: %s = %x, reference %x", i, name, got, want)
		}
	}
}

// TestPrimitivesDoNotAllocate pins the keyed state and the in-place pads:
// once the first Reset has saved the keyed state, no primitive touches the
// heap.
func TestPrimitivesDoNotAllocate(t *testing.T) {
	e := NewEngine(1)
	blk := make([]byte, BlockSize)
	fine := make([]MAC, 512)
	ctrs := make([]uint64, 8)
	var sink MAC
	for name, f := range map[string]func(){
		"BlockMAC":  func() { sink = e.BlockMAC(64, 1, blk) },
		"NestedMAC": func() { sink = e.NestedMAC(fine) },
		"NodeMAC":   func() { sink = e.NodeMAC(64, 1, ctrs) },
		"OTP":       func() { pad := e.OTP(64, 1); sink[0] ^= pad[0] },
		"Seal":      func() { e.Seal(blk, 64, 1, blk) },
		"Open":      func() { e.Open(blk, 64, 1, blk) },
	} {
		if n := testing.AllocsPerRun(10, f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
	_ = sink
}
