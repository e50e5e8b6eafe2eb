package main

import (
	"testing"
	"time"
)

var sink [][]byte

func TestTimeSection(t *testing.T) {
	c, err := timeSection(func() error {
		for i := 0; i < 200; i++ {
			sink = append(sink, make([]byte, 64<<10))
		}
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	sink = nil
	if err != nil {
		t.Fatal(err)
	}
	if c.wall < 5*time.Millisecond || c.allocBytes < 200*64<<10 || c.peakLive == 0 {
		t.Fatalf("cost %+v", c)
	}
}
