package msg

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		RdBlk: "RdBlk", RdBlkS: "RdBlkS", RdBlkM: "RdBlkM",
		VicDirty: "VicDirty", VicClean: "VicClean",
		WT: "WT", Atomic: "Atomic", Flush: "Flush",
		DMARd: "DMARd", DMAWr: "DMAWr",
		PrbInv: "PrbInv", PrbDowngrade: "PrbDowngrade", PrbAck: "PrbAck",
		Resp: "Resp", WBAck: "WBAck", AtomicResp: "AtomicResp",
		FlushAck: "FlushAck", Unblock: "Unblock",
	}
	for typ, want := range cases {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
	if !strings.Contains(Type(200).String(), "200") {
		t.Error("unknown type should include its number")
	}
}

func TestIsRequest(t *testing.T) {
	reqs := []Type{RdBlk, RdBlkS, RdBlkM, VicDirty, VicClean, WT, Atomic, Flush, DMARd, DMAWr}
	for _, r := range reqs {
		if !r.IsRequest() {
			t.Errorf("%s should be a request", r)
		}
	}
	for _, n := range []Type{PrbInv, PrbDowngrade, PrbAck, Resp, WBAck, AtomicResp, FlushAck, Unblock} {
		if n.IsRequest() {
			t.Errorf("%s should not be a request", n)
		}
	}
}

// TestNeedsInvProbe pins the paper's §III-A list: invalidating probes
// for DMAWr, RdBlkM, WT and Atomic; downgrading probes otherwise.
func TestNeedsInvProbe(t *testing.T) {
	inv := map[Type]bool{
		RdBlkM: true, WT: true, Atomic: true, DMAWr: true,
		RdBlk: false, RdBlkS: false, DMARd: false, VicDirty: false, VicClean: false,
	}
	for typ, want := range inv {
		if typ.NeedsInvProbe() != want {
			t.Errorf("%s.NeedsInvProbe = %v, want %v", typ, typ.NeedsInvProbe(), want)
		}
	}
}

// TestClass pins the virtual-network partition: every type belongs to
// exactly one class and the classes come back in dependency order.
func TestClass(t *testing.T) {
	want := map[Type]Class{
		RdBlk: ClassRequest, RdBlkS: ClassRequest, RdBlkM: ClassRequest,
		VicDirty: ClassRequest, VicClean: ClassRequest,
		WT: ClassRequest, Atomic: ClassRequest, Flush: ClassRequest,
		DMARd: ClassRequest, DMAWr: ClassRequest,
		PrbInv: ClassProbe, PrbDowngrade: ClassProbe,
		PrbAck: ClassProbeAck,
		Resp:   ClassResponse, WBAck: ClassResponse,
		AtomicResp: ClassResponse, FlushAck: ClassResponse,
		Unblock: ClassUnblock,
	}
	if len(want) != len(typeNames) {
		t.Fatalf("class table covers %d types, want %d", len(want), len(typeNames))
	}
	for typ, cls := range want {
		if typ.Class() != cls {
			t.Errorf("%s.Class() = %s, want %s", typ, typ.Class(), cls)
		}
	}
	classes := Classes()
	names := []string{"request", "probe", "probe-ack", "response", "unblock"}
	if len(classes) != len(names) {
		t.Fatalf("Classes() = %v", classes)
	}
	for i, c := range classes {
		if c.String() != names[i] {
			t.Errorf("class %d = %q, want %q", i, c.String(), names[i])
		}
		if int(c) != i {
			t.Errorf("class %q out of dependency order", c)
		}
	}
	if !strings.Contains(Class(9).String(), "9") {
		t.Error("unknown class should include its number")
	}
}

// TestTypeByName round-trips every type through its name.
func TestTypeByName(t *testing.T) {
	for i := range typeNames {
		typ := Type(i)
		got, ok := TypeByName(typ.String())
		if !ok || got != typ {
			t.Errorf("TypeByName(%q) = %v, %v", typ.String(), got, ok)
		}
	}
	if _, ok := TypeByName("NotAType"); ok {
		t.Error("TypeByName accepted an unknown name")
	}
}

func TestGrantString(t *testing.T) {
	for g, want := range map[Grant]string{GrantNone: "None", GrantS: "S", GrantE: "E", GrantM: "M"} {
		if g.String() != want {
			t.Errorf("grant %d = %q, want %q", g, g.String(), want)
		}
	}
}

func TestBytes(t *testing.T) {
	if (Message{Type: RdBlk}).Bytes() != ControlBytes {
		t.Error("request should be control-sized")
	}
	for _, d := range []Type{VicDirty, VicClean, WT, Resp} {
		if (Message{Type: d}).Bytes() != DataBytes {
			t.Errorf("%s should be data-sized", d)
		}
	}
	if (Message{Type: PrbAck}).Bytes() != ControlBytes {
		t.Error("dataless ack should be control-sized")
	}
	if (Message{Type: PrbAck, HasData: true}).Bytes() != DataBytes {
		t.Error("data ack should be data-sized")
	}
}

func TestMessageString(t *testing.T) {
	m := Message{Type: RdBlkM, Addr: 0x42, Src: 1, Dst: 6}
	s := m.String()
	for _, part := range []string{"RdBlkM", "0x42", "src=1", "dst=6"} {
		if !strings.Contains(s, part) {
			t.Errorf("String %q missing %q", s, part)
		}
	}
}

// TestMessageIsCompactValue pins what lets messages travel by value:
// no field holds a pointer (a copy shares nothing with its source) and
// the struct stays at 72 bytes, so a copy is a few register moves.
func TestMessageIsCompactValue(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got != 72 {
		t.Errorf("Message is %d bytes, want 72", got)
	}
	typ := reflect.TypeOf(Message{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("field %s has reference kind %s", f.Name, f.Type.Kind())
		}
	}
}
