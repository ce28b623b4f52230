// Package msg defines the coherence messages exchanged between the
// CorePair L2s, the GPU TCC, the DMA engine, and the system-level
// directory, mirroring the request taxonomy of the gem5 AMD APU
// protocol described in the paper (§II-A).
package msg

import (
	"fmt"

	"hscsim/internal/cachearray"
	"hscsim/internal/memdata"
)

// NodeID identifies an endpoint on the system interconnect. CorePair L2s
// occupy IDs 0..nCorePairs-1; the TCC, DMA engine and directory follow
// (see the system package for the concrete layout).
type NodeID int

// Type enumerates coherence message kinds.
type Type uint8

// Request, probe and response message types.
const (
	// CPU L2 → directory requests (§II-A).
	RdBlk    Type = iota // read permission; may be granted Shared or Exclusive
	RdBlkS               // read permission, Shared only (I-cache misses)
	RdBlkM               // write permission
	VicDirty             // dirty victim write-back
	VicClean             // clean victim write-back

	// TCC → directory requests.
	WT     // write-through (doubles as write-back when TCC is WB)
	Atomic // system-level-visible atomic, executed at the directory
	Flush  // TCP flush orchestrated by TCC (Store Release support)

	// DMA engine → directory requests.
	DMARd
	DMAWr

	// Directory → cache probes.
	PrbInv       // invalidating probe
	PrbDowngrade // downgrading probe

	// Cache → directory probe acknowledgment.
	PrbAck

	// Directory → requester responses.
	Resp       // data + grant for RdBlk/RdBlkS/RdBlkM and TCC RdBlk
	WBAck      // victim/WT accepted
	AtomicResp // old value of a system-scope atomic
	FlushAck

	// Requester → directory transaction completion.
	Unblock
)

var typeNames = [...]string{
	"RdBlk", "RdBlkS", "RdBlkM", "VicDirty", "VicClean",
	"WT", "Atomic", "Flush", "DMARd", "DMAWr",
	"PrbInv", "PrbDowngrade", "PrbAck",
	"Resp", "WBAck", "AtomicResp", "FlushAck", "Unblock",
}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// IsRequest reports whether t is a directory-bound request that opens a
// coherence transaction.
func (t Type) IsRequest() bool {
	switch t {
	case RdBlk, RdBlkS, RdBlkM, VicDirty, VicClean, WT, Atomic, Flush, DMARd, DMAWr:
		return true
	default:
		return false
	}
}

// NeedsInvProbe reports whether t is a write-permission request that
// broadcasts invalidating probes in the stateless protocol (§III-A):
// DMAWr, RdBlkM, WT and Atomic.
func (t Type) NeedsInvProbe() bool {
	switch t {
	case RdBlkM, WT, Atomic, DMAWr:
		return true
	default:
		return false
	}
}

// Class partitions message types into the virtual-network ordering
// classes of the gem5 AMD APU protocol (§II-A): requests, probes, probe
// acknowledgments, responses and unblocks travel on separate virtual
// networks, and deadlock freedom rests on handlers of one class never
// blocking on a lower class. cmd/hscproto -deadlock checks exactly that
// over the statically extracted tables.
type Class uint8

// Message classes, in the virtual-network dependency order: handling a
// message of one class may wait only on classes that come later.
const (
	ClassRequest  Class = iota // cache/DMA → directory requests
	ClassProbe                 // directory → cache probes
	ClassProbeAck              // cache → directory probe acknowledgments
	ClassResponse              // directory → requester responses
	ClassUnblock               // requester → directory completions
)

var classNames = [...]string{"request", "probe", "probe-ack", "response", "unblock"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Classes returns every message class in virtual-network order.
func Classes() []Class {
	return []Class{ClassRequest, ClassProbe, ClassProbeAck, ClassResponse, ClassUnblock}
}

// Class returns t's virtual-network class.
func (t Type) Class() Class {
	switch t {
	case RdBlk, RdBlkS, RdBlkM, VicDirty, VicClean, WT, Atomic, Flush, DMARd, DMAWr:
		return ClassRequest
	case PrbInv, PrbDowngrade:
		return ClassProbe
	case PrbAck:
		return ClassProbeAck
	case Resp, WBAck, AtomicResp, FlushAck:
		return ClassResponse
	default:
		return ClassUnblock
	}
}

// TypeByName resolves a message-type name ("RdBlk", "PrbInv", …) back to
// its Type. The second result is false for unknown names; the protocol
// table extractor uses it to validate //proto:emits annotations.
func TypeByName(name string) (Type, bool) {
	for i, n := range typeNames {
		if n == name {
			return Type(i), true
		}
	}
	return 0, false
}

// Grant is the permission granted by a directory response.
type Grant uint8

// Grants, in increasing order of permission.
const (
	GrantNone Grant = iota
	GrantS          // Shared
	GrantE          // Exclusive (clean; may silently become Modified)
	GrantM          // Modified
)

func (g Grant) String() string {
	switch g {
	case GrantS:
		return "S"
	case GrantE:
		return "E"
	case GrantM:
		return "M"
	}
	return "None"
}

// Message is a single coherence message. Data payloads are not carried:
// values are functional (package memdata); HasData/Dirty model the
// protocol-visible properties of the payload.
//
// A Message is a plain value with no pointer fields: senders build a
// literal and pass it to noc.Fabric.Send, and every receiver gets its
// own copy, which it may keep for as long as it likes. The one-byte
// fields share a word, which keeps the struct at 72 bytes.
type Message struct {
	Addr cachearray.LineAddr
	Src  NodeID
	Dst  NodeID

	Type Type

	// Probe acknowledgment fields.
	HasData bool // the probed cache held the line and forwarded data
	Dirty   bool // the forwarded data was modified (M or O at the holder)

	// Response fields.
	Grant     Grant
	FromCache bool // data was sourced from a peer cache (denies Exclusive)

	// Retain marks a WT whose sender (a write-through TCC) keeps a valid
	// copy of the line, as opposed to a write-back eviction.
	Retain bool

	// Atomic fields (system-scope atomics executed at the directory).
	AOp      memdata.AtomicOp
	WordAddr memdata.Addr
	Operand  uint64
	Compare  uint64
	Old      uint64

	// TxnID ties probes and acks to a directory transaction.
	TxnID uint64
}

// ControlBytes and DataBytes size messages for network-traffic
// accounting (8-byte control header; 64-byte line plus header for data).
const (
	ControlBytes = 8
	DataBytes    = 72
)

// Bytes returns the on-wire size of the message.
func (m Message) Bytes() int {
	switch m.Type {
	case VicDirty, VicClean, WT, Resp:
		return DataBytes
	case PrbAck:
		if m.HasData {
			return DataBytes
		}
		return ControlBytes
	default:
		return ControlBytes
	}
}

func (m Message) String() string {
	return fmt.Sprintf("%s addr=%#x src=%d dst=%d", m.Type, uint64(m.Addr), m.Src, m.Dst)
}
