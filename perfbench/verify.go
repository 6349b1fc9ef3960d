package main

import (
	"encoding/binary"
	"hash/maphash"
)

// Payloads are self-describing: the first 16 bytes carry the key and the
// version, the rest of a leading part is seeded pseudo-random bytes and the
// tail is zero, so the codec in the cache path does real work. The verifier
// keeps, per key, the last acknowledged version and a checksum of its
// payload (one writer per key).
const payloadHeader = 16

// fillPayload writes (key, version)'s half-compressible payload into buf.
func fillPayload(buf []byte, key, version uint64) {
	fillPayloadRandom(buf, key, version, len(buf)/2)
}

// fillPayloadRandom writes (key, version)'s payload into buf with its first
// random bytes pseudo-random and the rest zero.
func fillPayloadRandom(buf []byte, key, version uint64, random int) {
	binary.LittleEndian.PutUint64(buf[0:], key)
	binary.LittleEndian.PutUint64(buf[8:], version)
	x := key*0x9E3779B97F4A7C15 ^ version*0xBF58476D1CE4E5B9 ^ 0x94D049BB133111EB
	i := payloadHeader
	for ; i+8 <= random; i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
	for ; i < random; i++ {
		x = splitmix(x)
		buf[i] = byte(x)
	}
	clear(buf[max(random, payloadHeader):])
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

type stamp struct {
	version uint64
	sum     uint64
}

// verifier holds the last acknowledged write of every key.
type verifier struct {
	seed maphash.Seed
	want map[uint64]stamp
}

func newVerifier() *verifier {
	return &verifier{seed: maphash.MakeSeed(), want: map[uint64]stamp{}}
}

// ack records an acknowledged write of payload under key.
func (v *verifier) ack(key uint64, payload []byte) {
	v.want[key] = stamp{version: binary.LittleEndian.Uint64(payload[8:]), sum: maphash.Bytes(v.seed, payload)}
}

// version is the last acknowledged version of key (0 if never written).
func (v *verifier) version(key uint64) uint64 { return v.want[key].version }

// check reports whether got is exactly the last acknowledged write of key:
// same key and version in the header, same checksum over every byte.
func (v *verifier) check(key uint64, got []byte) bool {
	w, ok := v.want[key]
	if !ok || len(got) < payloadHeader {
		return false
	}
	return binary.LittleEndian.Uint64(got[0:]) == key &&
		binary.LittleEndian.Uint64(got[8:]) == w.version &&
		maphash.Bytes(v.seed, got) == w.sum
}
