// Package crypto implements the cryptographic primitives of the
// counter-mode memory-protection engine (paper section 2.2):
//
//   - OTP generation: a one-time pad derived from (secret key, block
//     address, counter value), XORed with plaintext for encryption
//     (AES-128 over a nonce block, the standard counter-mode MEE design).
//   - MACs: 8-byte keyed hashes over (address, counter, ciphertext)
//     guarding each 64B block against tampering and splicing.
//   - Nested coarse MACs (paper Eq. 5): the multi-granular MAC of a
//     coarse region is the chained hash of its fine-grained MACs, so a
//     coarse MAC can be formed from, and checked against, fine MACs
//     without a second pass over the data.
//
// The functional layer (internal/secmem) uses these primitives for real
// tamper/replay detection; the timing layer charges the paper's fixed
// latencies (OTP 10 cycles, XOR 1 cycle) instead of running them.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"hash"
)

// BlockSize is the protected block granularity in bytes.
const BlockSize = 64

// MACSize is the stored MAC size in bytes (8B per 64B block, section 2.2).
const MACSize = 8

// MAC is a truncated keyed hash.
type MAC [MACSize]byte

// hdrSize is the header of a block or node MAC: an address word and a
// counter word.
const hdrSize = 16

// Engine holds the secret keys of one memory-protection engine instance,
// as a keyed AES cipher and one keyed HMAC-SHA-256 state, and the scratch
// its primitives hash and encrypt through. Each MAC resets the keyed state,
// which restores the precomputed ipad/opad compressions (FIPS 198-1 §6)
// instead of rekeying. An Engine is not safe for concurrent use: each
// protected memory owns one.
type Engine struct {
	block cipher.Block
	mac   hash.Hash

	sum [sha256.Size]byte
	msg [hdrSize + 8*8]byte // a header and a line's counter words, or an (acc, m) pair
	in  [16]byte            // AES input of one pad block
	pad [BlockSize]byte
}

// NewEngine derives an engine from a seed. Production hardware fuses a
// random key at manufacturing; here the seed keeps simulations
// deterministic while exercising the full cryptographic path.
func NewEngine(seed uint64) *Engine {
	var aesKey [16]byte
	binary.LittleEndian.PutUint64(aesKey[0:], seed)
	binary.LittleEndian.PutUint64(aesKey[8:], seed^0x9e3779b97f4a7c15)
	b, err := aes.NewCipher(aesKey[:])
	if err != nil {
		// aes.NewCipher only fails on bad key length; 16 is always valid.
		panic(err)
	}
	macKey := sha256.Sum256(aesKey[:])
	return &Engine{block: b, mac: hmac.New(sha256.New, macKey[:])}
}

// OTP returns the 64-byte one-time pad for (addr, counter). Uniqueness of
// the (addr, counter) pair is what guarantees pad uniqueness; the caller
// (the counter-management layer) is responsible for never reusing a counter
// value for the same address.
func (e *Engine) OTP(addr uint64, counter uint64) [BlockSize]byte {
	e.fillPad(addr, counter)
	return e.pad
}

// fillPad computes the one-time pad for (addr, counter) into e.pad.
func (e *Engine) fillPad(addr, counter uint64) {
	binary.LittleEndian.PutUint64(e.in[0:], addr)
	for i := 0; i < BlockSize/16; i++ {
		binary.LittleEndian.PutUint64(e.in[8:], counter<<2|uint64(i))
		e.block.Encrypt(e.pad[i*16:(i+1)*16], e.in[:])
	}
}

// Seal encrypts the 64B plaintext block src for (addr, counter) into the
// 64B dst; dst may be src.
func (e *Engine) Seal(dst []byte, addr, counter uint64, src []byte) {
	e.xorPad(dst, addr, counter, src)
}

// Open decrypts the 64B ciphertext block src for (addr, counter) into the
// 64B dst; dst may be src.
func (e *Engine) Open(dst []byte, addr, counter uint64, src []byte) {
	e.xorPad(dst, addr, counter, src)
}

func (e *Engine) xorPad(dst []byte, addr, counter uint64, src []byte) {
	if len(dst) != BlockSize || len(src) != BlockSize {
		panic("crypto: block must be 64 bytes")
	}
	e.fillPad(addr, counter)
	subtle.XORBytes(dst, src, e.pad[:])
}

// BlockMAC computes the fine-grained MAC over (addr, counter, ciphertext).
// Binding the address prevents splicing; binding the counter prevents
// replay of a (ciphertext, MAC) pair from an earlier version.
func (e *Engine) BlockMAC(addr, counter uint64, ciphertext []byte) MAC {
	e.mac.Reset()
	e.putHeader(addr, counter)
	e.mac.Write(e.msg[:hdrSize])
	e.mac.Write(ciphertext)
	return e.sumMAC()
}

// NestedMAC folds fine-grained MACs into one coarse MAC by chained hashing
// (paper Eq. 5): MAC_coarse = H(...H(H(m1), m2)..., mn).
func (e *Engine) NestedMAC(fine []MAC) MAC {
	if len(fine) == 0 {
		panic("crypto: NestedMAC of zero MACs")
	}
	pair := e.msg[:2*MACSize]
	copy(pair, fine[0][:])
	acc := e.hashMAC(pair[:MACSize])
	for _, m := range fine[1:] {
		copy(pair, acc[:])
		copy(pair[MACSize:], m[:])
		acc = e.hashMAC(pair)
	}
	return acc
}

func (e *Engine) hashMAC(msg []byte) MAC {
	e.mac.Reset()
	e.mac.Write(msg)
	return e.sumMAC()
}

// NodeMAC authenticates an integrity-tree node: the hash of a counter-line
// payload keyed by the parent counter that versions it. Used by the
// functional tree to chain each level to its parent up to the on-chip root.
func (e *Engine) NodeMAC(nodeAddr uint64, parentCounter uint64, counters []uint64) MAC {
	e.mac.Reset()
	e.putHeader(nodeAddr, parentCounter)
	n := hdrSize
	for _, c := range counters {
		if n == len(e.msg) {
			e.mac.Write(e.msg[:])
			n = 0
		}
		binary.LittleEndian.PutUint64(e.msg[n:], c)
		n += 8
	}
	e.mac.Write(e.msg[:n])
	return e.sumMAC()
}

// putHeader writes a MAC header into the message scratch.
func (e *Engine) putHeader(addr, counter uint64) {
	binary.LittleEndian.PutUint64(e.msg[0:], addr)
	binary.LittleEndian.PutUint64(e.msg[8:], counter)
}

// sumMAC finishes the keyed hash and truncates it to a MAC.
func (e *Engine) sumMAC() MAC {
	var m MAC
	copy(m[:], e.mac.Sum(e.sum[:0]))
	return m
}

// Equal compares two MACs in constant time.
func Equal(a, b MAC) bool {
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	return v == 0
}
