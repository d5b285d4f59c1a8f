package kafka

// Producer is a convenience front for appending to one topic. It is a thin
// stateless wrapper; all ordering guarantees come from the broker.
type Producer struct {
	broker *Broker
	topic  string
}

// NewProducer returns a producer bound to topic on b.
func NewProducer(b *Broker, topic string) *Producer {
	return &Producer{broker: b, topic: topic}
}

// Send appends a message with key-based partitioning and returns its offset.
func (p *Producer) Send(key, value []byte, timestamp int64) (int64, error) {
	return p.broker.Produce(p.topic, Message{
		Partition: -1,
		Key:       key,
		Value:     value,
		Timestamp: timestamp,
	})
}

// SendBatch appends msgs in one broker call: runs of messages bound for the
// same partition share a lock acquisition and subscriber wakeup. Partition
// resolution matches Send/SendTo (negative Partition = key hash). Keys and
// values are copied into the log, so the caller may reuse them on return.
func (p *Producer) SendBatch(msgs []Message) error {
	return p.broker.ProduceBatch(p.topic, msgs)
}

// SendTo appends a message to an explicit partition and returns its offset.
func (p *Producer) SendTo(part int32, key, value []byte, timestamp int64) (int64, error) {
	return p.broker.Produce(p.topic, Message{
		Partition: part,
		Key:       key,
		Value:     value,
		Timestamp: timestamp,
	})
}
