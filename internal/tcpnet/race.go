//go:build race

package tcpnet

// raceEnabled reports whether the race detector is compiled in. The
// vectored flush degrades to one staged write under the detector: the
// happens-before edge the detector models for socket data rides on the
// write/read syscall annotations (syscall's ioSync release/acquire), and the
// raw writev path used by net.Buffers has no such annotation — so data sent
// with writev to a peer in the same process would be reported as racing with
// that peer's later, genuinely ordered reads. The frames are copied into a
// buffer the connection owns because syscall.Write annotates its read of the
// buffer after the syscall, when the peer may already have answered.
const raceEnabled = true
