package runtime

import (
	"testing"
	"time"

	"modab/internal/transport"
	"modab/internal/types"
)

// TestSendDoesNotRetain is the engine.Env.Send contract on the real
// driver, over both transports: a buffer the engine overwrites right
// after Send still reaches the peer as it was sent.
func TestSendDoesNotRetain(t *testing.T) {
	mem := transport.NewMemNetwork()
	for _, name := range []string{"memory", "tcp"} {
		t.Run(name, func(t *testing.T) {
			var trs [2]transport.Transport
			if name == "memory" {
				trs[0], trs[1] = mem.Endpoint(0), mem.Endpoint(1)
			} else {
				var tcp [2]*transport.TCP
				for i := range tcp {
					var err error
					if tcp[i], err = transport.NewTCP(types.ProcessID(i), []string{"127.0.0.1:0", "127.0.0.1:0"}); err != nil {
						t.Fatal(err)
					}
				}
				addrs := []string{tcp[0].Addr(), tcp[1].Addr()}
				tcp[0].SetAddrs(addrs)
				tcp[1].SetAddrs(addrs)
				trs[0], trs[1] = tcp[0], tcp[1]
			}
			got := make(chan string, 2)
			for i, tr := range trs {
				if err := tr.Start(func(_ types.ProcessID, data []byte) {
					if i == 1 {
						got <- string(data)
					}
				}); err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
			}
			n := &Node{tr: trs[0]}
			n.env = &nodeEnv{node: n}
			for _, body := range []string{"first", "second"} {
				buf := []byte(body)
				n.env.Send(1, buf)
				copy(buf, "XXXXXX")
			}
			for _, want := range []string{"first", "second"} {
				select {
				case data := <-got:
					if data != string(chanEngine)+want {
						t.Fatalf("peer received %q, want %q", data, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%q never arrived", want)
				}
			}
		})
	}
}
