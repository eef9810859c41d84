package main

import (
	"os"
	"testing"
	"time"
)

func TestSampleRSSReadsThisProcess(t *testing.T) {
	s := sampleRSS(os.Getpid(), os.Getpid())
	time.Sleep(3 * rssEvery)
	both, err := s.median()
	if err != nil {
		t.Fatal(err)
	}
	one, err := rssMB(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if one <= 0 || both < 1.5*one || both > 2.5*one {
		t.Errorf("resident set %.2f MB, twice over %.2f MB", one, both)
	}
	if _, err := sampleRSS(-1).median(); err == nil {
		t.Error("sampling a process that does not exist succeeded")
	}
}
